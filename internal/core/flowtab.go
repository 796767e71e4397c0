package core

import "unsafe"

// slotHeader is the part of a slot the table itself reads and writes: the
// probe fields first (one cache line holds hash, live and the key's start),
// then the idle clock and the admission flag. hash is the flow hash the
// slot's flow was inserted with; find probes from mix(hash) and compares
// keys only where the hashes agree.
type slotHeader struct {
	hash     uint32
	live     bool
	promoted bool // admitted through the sketch tier's elephant path
	lastTS   int64
	key      FlowKey
}

// flowSlot is one table slot: the header plus the owning tracker's per-flow
// state. An empty slot is all zero.
type flowSlot[E any] struct {
	slotHeader
	val E
}

// slotBytes is the in-memory size of one slot — what an exact record costs
// against the sketch tier's byte budget. Sizeof, not a hand-maintained
// constant, so the charge tracks the structs as they evolve.
func slotBytes[E any]() int64 { return int64(unsafe.Sizeof(flowSlot[E]{})) }

// flowTable is the one per-flow hash table under HandshakeTable, TSTracker
// and SeqTracker: a fixed-size open-addressed array (linear probing,
// backward-shift deletion, no tombstones) that refuses new flows beyond 85%
// occupancy or when the Admitter says no, and evicts flows idle for longer
// than timeout in an incremental sweep. The trackers are state machines
// over a slot's val; everything about finding, admitting, freeing and
// expiring a slot is here and only here. Single-writer, no allocation after
// construction.
type flowTable[E any] struct {
	slots   []flowSlot[E]
	mask    uint32
	live    int
	maxLive int
	timeout int64
	admit   Admitter

	// full counts inserts refused at the occupancy bound and expired the
	// idle evictions; the trackers report them as TableFull and Expired.
	full    uint64
	expired uint64
	// onEvict, when non-nil, is called for every idle eviction after the
	// slot has been freed, with the slot's last activity time and state.
	onEvict func(lastTS int64, val E)

	sweepPos   uint32 // incremental sweep cursor
	sweepEvery int64  // virtual time between sweep chunks
	lastSweep  int64
}

// sweepChunk is how many slots one incremental sweep step examines.
const sweepChunk = 256

// newFlowTable builds a table of capacity slots (rounded up to a power of
// two) whose flows expire after timeout nanoseconds of the tap clock.
func newFlowTable[E any](capacity int, timeout int64, admit Admitter) flowTable[E] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	// The sweep covers the full table once per timeout period.
	every := timeout / int64(n/sweepChunk+1)
	if every < 1 {
		every = 1
	}
	return flowTable[E]{
		slots:      make([]flowSlot[E], n),
		mask:       uint32(n - 1),
		maxLive:    n * 85 / 100,
		timeout:    timeout,
		admit:      admit,
		sweepEvery: every,
	}
}

// Len returns the number of live entries.
func (t *flowTable[E]) Len() int { return t.live }

// mix finalizes the 32-bit flow hash a table is handed into the index its
// probe starts from. Mixing spreads values but cannot separate flows whose
// hashes are equal, so the hash must tell flows apart: the engine passes
// FlowHash, seeded per queue. The NIC's symmetric Toeplitz value would not
// do: a linear function of the tuple's 16-bit XOR-fold, it has at most
// 65 536 values, and flows that share a fold would share one probe chain.
func mix(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x7feb352d
	h ^= h >> 15
	h *= 0x846ca68b
	h ^= h >> 16
	return h
}

// Touch loads the stored hash of the slot a probe for flowHash starts at
// and returns it, so the load is kept. A caller about to probe several
// tables with one hash touches them first, and their cache misses overlap
// instead of queuing one behind another; the engine touches its trackers'
// tables before the handshake table probes.
//
//ruru:noalloc
func (t *flowTable[E]) Touch(flowHash uint32) uint32 {
	return t.slots[mix(flowHash)&t.mask].hash
}

// find locates the slot index of key, or the first empty slot encountered.
//
//ruru:noalloc
func (t *flowTable[E]) find(hash uint32, key FlowKey) (idx uint32, found bool) {
	i := mix(hash) & t.mask
	for {
		s := &t.slots[i]
		if !s.live {
			return i, false
		}
		if s.hash == hash && s.key == key {
			return i, true
		}
		i = (i + 1) & t.mask
	}
}

// insert claims the empty slot idx (where find stopped) for a new flow and
// returns it with a zero val, or nil when the flow gets no exact record:
// the table is at its occupancy bound (counted in full), or the sketch
// tier's budget refused it (counted SketchOnlyFlows by the admitter).
//
//ruru:noalloc
func (t *flowTable[E]) insert(idx, hash uint32, key FlowKey, ts int64) *flowSlot[E] {
	if t.live >= t.maxLive {
		t.full++
		return nil
	}
	var promoted bool
	if t.admit != nil {
		ok, prom := t.admit.Admit(slotBytes[E]())
		if !ok {
			return nil
		}
		promoted = prom
	}
	s := &t.slots[idx]
	s.slotHeader = slotHeader{hash: hash, live: true, promoted: promoted, lastTS: ts, key: key}
	t.live++
	return s
}

// remove frees slot i, returns its charge to the admitter, and closes the
// hole by backward-shift deletion, preserving probe chains without
// tombstones.
//
//ruru:noalloc
func (t *flowTable[E]) remove(i uint32) {
	if t.admit != nil {
		t.admit.Release(slotBytes[E](), t.slots[i].promoted)
	}
	t.live--
	for {
		t.slots[i] = flowSlot[E]{}
		j := i
		for {
			j = (j + 1) & t.mask
			s := &t.slots[j]
			if !s.live {
				return
			}
			home := mix(s.hash) & t.mask
			// Can s legally move into the hole at i?
			if (j-home)&t.mask >= (j-i)&t.mask {
				t.slots[i] = *s
				i = j
				break
			}
		}
	}
}

// maybeSweep advances the incremental eviction scan: one sweepChunk of slots
// every sweepEvery of virtual time, so the whole table is covered once per
// timeout and eviction cost never stalls a burst.
//
//ruru:noalloc
func (t *flowTable[E]) maybeSweep(now int64) {
	if t.lastSweep == 0 {
		t.lastSweep = now
		return
	}
	if now-t.lastSweep < t.sweepEvery {
		return
	}
	t.lastSweep = now
	end := t.sweepPos + sweepChunk
	for i := t.sweepPos; i < end; i++ {
		t.evictIdleAt(i&t.mask, now)
	}
	t.sweepPos = end & t.mask
}

// evictIdleAt removes the entry at idx while it is idle past the timeout;
// backward-shift deletion may move another idle entry into idx, so it loops.
func (t *flowTable[E]) evictIdleAt(idx uint32, now int64) {
	for {
		s := &t.slots[idx]
		if !s.live || now-s.lastTS <= t.timeout {
			return
		}
		t.expired++
		lastTS, val := s.lastTS, s.val
		t.remove(idx)
		if t.onEvict != nil {
			t.onEvict(lastTS, val)
		}
	}
}

// SweepAll synchronously evicts every idle entry (used at end of trace and
// in tests).
func (t *flowTable[E]) SweepAll(now int64) {
	for i := uint32(0); i < uint32(len(t.slots)); i++ {
		t.evictIdleAt(i, now)
	}
}
