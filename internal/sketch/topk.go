package sketch

import (
	"cmp"
	"slices"
	"unsafe"
)

// Agg is a running latency aggregate attached to a heavy-hitter entry
// (min/max/sum/count, enough for mean): the per-(src_city,dst_city)
// latency summary the paper's dashboard statistics come from, kept in
// bounded space.
type Agg struct {
	Count uint64
	Sum   float64
	Min   float64
	Max   float64
}

// merge folds one observation into the aggregate.
func (a *Agg) merge(v float64) {
	if a.Count == 0 || v < a.Min {
		a.Min = v
	}
	if a.Count == 0 || v > a.Max {
		a.Max = v
	}
	a.Count++
	a.Sum += v
}

// Item is one tracked heavy hitter. Count overestimates the key's true
// count by at most Err (the space-saving error: the count of the entry it
// replaced); Count-Err is a guaranteed lower bound. Lat is only populated
// through UpdateLat and covers the key's tenure in the summary.
type Item[K comparable] struct {
	Key   K
	Count uint64
	Err   uint64
	Lat   Agg
}

// TopK is a space-saving heavy-hitter summary (Metwally et al.): at most k
// tracked keys in a min-heap; an unknown key replaces the current minimum
// and inherits its count as error. The superset guarantee is
// deterministic: any key with true count > Total/k is tracked.
//
// Layout: a key keeps one slot of slots for as long as it is tracked. The
// heap orders 16-byte (count, slot) entries, so a sift moves array cells
// and never touches a key; pos maps a slot to its heap position. An
// open-addressed index keyed by the caller's hash (linear probing, load at
// most ½, backward-shift delete) maps a key to its slot, so a hit costs one
// probe and nothing on the update path writes a Go map.
//
// TopK is single-writer; concurrent readers consume copies made by the
// owner (FlowTier.Publish).
type TopK[K comparable] struct {
	k    int
	hash func(K) uint64

	slots  []Item[K]   // tracked keys, one stable slot each
	hashes []uint64    // slot -> hash of its key
	pos    []int32     // slot -> heap position
	heap   []heapEntry // min-heap on count
	index  []int32     // slot+1 per occupied cell, 0 empty
	mask   uint64      // len(index)-1

	total uint64 // sum of all increments
	evict uint64 // replacements of the minimum
}

// heapEntry is one heap cell: a tracked key's count beside its slot.
type heapEntry struct {
	count uint64
	slot  int32
}

// topkCap normalizes a requested capacity: default 1024, minimum 8.
func topkCap(k int) int {
	if k <= 0 {
		return 1024
	}
	return max(k, 8)
}

// topkIndexCells is the index length for capacity k: the smallest power of
// two holding twice k, so the load factor never exceeds ½.
func topkIndexCells(k int) int {
	n := 1
	for n < 2*k {
		n <<= 1
	}
	return n
}

// NewTopK builds a summary tracking at most k keys (default 1024, minimum
// 8), indexing keys by hash. Every array is allocated up front, so updates
// never allocate.
func NewTopK[K comparable](k int, hash func(K) uint64) *TopK[K] {
	k = topkCap(k)
	cells := topkIndexCells(k)
	return &TopK[K]{
		k:      k,
		hash:   hash,
		slots:  make([]Item[K], 0, k),
		hashes: make([]uint64, k),
		pos:    make([]int32, k),
		heap:   make([]heapEntry, 0, k),
		index:  make([]int32, cells),
		mask:   uint64(cells - 1),
	}
}

// Update adds inc to key's count.
//
//ruru:noalloc
func (t *TopK[K]) Update(key K, inc uint64) {
	t.add(key, t.hash(key), inc)
}

// UpdateLat is Update plus a latency observation folded into the entry's
// aggregate. An entry evicted and re-admitted restarts its aggregate (the
// summary covers tenure, not lifetime — documented on Item.Lat).
//
//ruru:noalloc
func (t *TopK[K]) UpdateLat(key K, inc uint64, lat float64) {
	t.add(key, t.hash(key), inc).Lat.merge(lat)
}

// add adds inc to the count of key, whose hash is h, and returns the key's
// slot. Callers that already hold the hash (FlowTier.Observe) call it
// directly.
//
//ruru:noalloc
func (t *TopK[K]) add(key K, h, inc uint64) *Item[K] {
	t.total += inc
	if s := t.find(key, h); s >= 0 {
		it := &t.slots[s]
		it.Count += inc
		p := t.pos[s]
		t.heap[p].count = it.Count
		t.siftDown(int(p))
		return it
	}
	if len(t.slots) < t.k {
		s := int32(len(t.slots))
		t.slots = append(t.slots, Item[K]{Key: key, Count: inc})
		t.hashes[s] = h
		t.insert(s)
		t.heap = append(t.heap, heapEntry{count: inc, slot: s})
		t.siftUp(len(t.heap) - 1)
		return &t.slots[s]
	}
	// Replace the minimum: the newcomer inherits its count as error and
	// takes over its slot.
	s := t.heap[0].slot
	it := &t.slots[s]
	t.unindex(s)
	*it = Item[K]{Key: key, Count: it.Count + inc, Err: it.Count}
	t.hashes[s] = h
	t.insert(s)
	t.heap[0].count = it.Count
	t.evict++
	t.siftDown(0)
	return it
}

// find returns the slot of key, whose hash is h, or -1 if it is not
// tracked. The probe ends at an empty cell, and one always exists.
//
//ruru:noalloc
func (t *TopK[K]) find(key K, h uint64) int32 {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		c := t.index[i]
		if c == 0 {
			return -1
		}
		if s := c - 1; t.hashes[s] == h && t.slots[s].Key == key {
			return s
		}
	}
}

// insert indexes slot s, whose key is not yet indexed, at the first empty
// cell from its hash's home cell.
//
//ruru:noalloc
func (t *TopK[K]) insert(s int32) {
	i := t.hashes[s] & t.mask
	for t.index[i] != 0 {
		i = (i + 1) & t.mask
	}
	t.index[i] = s + 1
}

// unindex removes slot s from the index by backward shift: every later
// cell of the probe run moves into the hole unless the hole lies before
// its home cell, so no tombstones build up and each remaining key stays
// reachable from its home cell.
//
//ruru:noalloc
func (t *TopK[K]) unindex(s int32) {
	i := t.hashes[s] & t.mask
	for t.index[i] != s+1 {
		i = (i + 1) & t.mask
	}
	for j := i; ; {
		j = (j + 1) & t.mask
		c := t.index[j]
		if c == 0 {
			break
		}
		if home := t.hashes[c-1] & t.mask; (j-home)&t.mask >= (j-i)&t.mask {
			t.index[i] = c
			i = j
		}
	}
	t.index[i] = 0
}

// place puts heap entry e at position i and records it in pos.
//
//ruru:noalloc
func (t *TopK[K]) place(i int, e heapEntry) {
	t.heap[i] = e
	t.pos[e.slot] = int32(i)
}

// siftUp and siftDown move the entry at i by holding it aside and shifting
// the cells it passes. They compare exactly as a swap-based sift would, so
// every entry lands where the map-based summary put it (topk_ref_test.go).
//
//ruru:noalloc
func (t *TopK[K]) siftUp(i int) {
	e := t.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if t.heap[parent].count <= e.count {
			break
		}
		t.place(i, t.heap[parent])
		i = parent
	}
	t.place(i, e)
}

//ruru:noalloc
func (t *TopK[K]) siftDown(i int) {
	e := t.heap[i]
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		small, c := i, e.count
		if l < n && t.heap[l].count < c {
			small, c = l, t.heap[l].count
		}
		if r < n && t.heap[r].count < c {
			small = r
		}
		if small == i {
			break
		}
		t.place(i, t.heap[small])
		i = small
	}
	t.place(i, e)
}

// Contains reports whether key is currently tracked.
func (t *TopK[K]) Contains(key K) bool {
	return t.find(key, t.hash(key)) >= 0
}

// Estimate returns the tracked count for key (an overestimate) and whether
// the key is tracked at all.
func (t *TopK[K]) Estimate(key K) (uint64, bool) {
	s := t.find(key, t.hash(key))
	if s < 0 {
		return 0, false
	}
	return t.slots[s].Count, true
}

// Min returns the smallest tracked count (0 while the summary is not yet
// full) — the bar a newcomer's inherited error starts from.
func (t *TopK[K]) Min() uint64 {
	if len(t.heap) < t.k {
		return 0
	}
	return t.heap[0].count
}

// Len returns the number of tracked keys. Total returns the sum of all
// increments, Evictions the number of minimum replacements.
func (t *TopK[K]) Len() int          { return len(t.heap) }
func (t *TopK[K]) Total() uint64     { return t.total }
func (t *TopK[K]) Evictions() uint64 { return t.evict }

// K returns the summary's capacity.
func (t *TopK[K]) K() int { return t.k }

// appendHeap appends every tracked item to dst in heap order, unsorted,
// and returns it: the publish copy, ranked by whoever merges it.
func (t *TopK[K]) appendHeap(dst []Item[K]) []Item[K] {
	for _, e := range t.heap {
		dst = append(dst, t.slots[e.slot])
	}
	return dst
}

// Top appends the n largest tracked items, descending by Count, to dst
// and returns it (n <= 0 or n > Len: all of them). The copy is the
// publish/serve boundary: callers never see the live heap.
func (t *TopK[K]) Top(dst []Item[K], n int) []Item[K] {
	start := len(dst)
	dst = t.appendHeap(dst)
	out := dst[start:]
	// Generic (non-reflective) sort: the serve path stays free of
	// allocations when dst is reused across polls.
	slices.SortFunc(out, func(a, b Item[K]) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		return cmp.Compare(b.Err, a.Err)
	})
	if n > 0 && n < len(out) {
		dst = dst[:start+n]
	}
	return dst
}

// topkEntryBytes is what one tracked key costs: its Item slot, its heap
// entry, its heap position, its stored hash and the two index cells the
// load factor reserves for it. Auto-sizing divides a byte share by it.
func topkEntryBytes[K comparable]() int64 {
	var it Item[K]
	return int64(unsafe.Sizeof(it)) + int64(unsafe.Sizeof(heapEntry{})) + 4 + 8 + 2*4
}

// TopKBytes returns the memory NewTopK allocates for capacity k and key
// type K: k × topkEntryBytes, plus the index cells beyond two per key when
// k is not a power of two.
func TopKBytes[K comparable](k int) int64 {
	k = topkCap(k)
	return int64(k)*topkEntryBytes[K]() + int64(topkIndexCells(k)-2*k)*4
}

// Bytes returns the fixed memory footprint charged for the summary
// (capacity-based: space-saving memory does not grow with traffic).
func (t *TopK[K]) Bytes() int64 { return TopKBytes[K](t.k) }
