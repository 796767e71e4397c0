package core

import (
	"net/netip"

	"ruru/internal/pkt"
)

// TSSample is one continuous RTT observation derived from TCP timestamp
// echoes (RFC 7323), the pping technique. When host A sends TSval v (seen at
// the tap at t1) and host B's echo TSecr=v passes the tap at t2, then
// t2−t1 is the round trip between the tap and B — so the tap measures the
// *echoer's* side of the path, continuously, for established flows the
// handshake engine never saw.
//
// This extends the paper's handshake-only measurement: setup latency comes
// from the three-way handshake (Measurement), in-stream latency evolution
// from timestamp echoes (TSSample).
type TSSample struct {
	// Echoer is the host whose side of the path was measured (the sender
	// of the echo packet); Peer is the other endpoint.
	Echoer, Peer netip.Addr
	// EchoerPort and PeerPort complete the tuple.
	EchoerPort, PeerPort uint16
	// RTT is the tap↔echoer round trip in nanoseconds; At the tap
	// timestamp of the echo.
	RTT int64
	At  int64
	// Queue is the observing RSS queue.
	Queue int
}

// TSStats counts tracker outcomes.
type TSStats struct {
	Packets   uint64 // TCP packets examined
	NoTS      uint64 // packets without a timestamp option
	Inserted  uint64 // TSvals registered
	Samples   uint64 // RTT samples produced
	Unmatched uint64 // echoes whose TSval was not (or no longer) pending
	Expired   uint64 // flow entries evicted idle
	TableFull uint64 // flows not tracked: table at capacity
	Occupancy uint64 // live flow entries (gauge)
}

func (s *TSStats) add(o TSStats) {
	s.Packets += o.Packets
	s.NoTS += o.NoTS
	s.Inserted += o.Inserted
	s.Samples += o.Samples
	s.Unmatched += o.Unmatched
	s.Expired += o.Expired
	s.TableFull += o.TableFull
	s.Occupancy += o.Occupancy
}

// tsPendingSlots bounds outstanding TSvals per direction per flow. Echoes
// arrive one RTT after their TSval; values older than the window are
// overwritten and their (rare, late) echoes counted Unmatched. Eight covers
// typical request/response flows; deep pipelines trade some sample loss for
// bounded memory, like pping.
const tsPendingSlots = 8

type tsPending struct {
	val  uint32
	ts   int64
	used bool
}

// tsEntry is the timestamp tracker's per-flow state, the val of a TSTracker
// slot. The slot's key is canonically oriented: the endpoint with the
// lexicographically smaller (addr, port) is side A.
type tsEntry struct {
	pendA [tsPendingSlots]tsPending
	pendB [tsPendingSlots]tsPending
	posA  uint8
	posB  uint8
}

// TSConfig configures a TSTracker.
type TSConfig struct {
	// Capacity is the number of flow slots (rounded to a power of two,
	// default 1<<15). Timeout evicts idle flows (default 60s). Queue is
	// recorded in samples.
	Capacity int
	Timeout  int64
	Queue    int
	// Admit, when non-nil, gates new-flow inserts against the sketch
	// tier's byte budget (same contract as TableConfig.Admit).
	Admit Admitter
}

// TSTracker measures continuous RTT from TCP timestamp echoes for one RSS
// queue. Like HandshakeTable it is single-writer and allocation-free on the
// packet path.
type TSTracker struct {
	flowTable[tsEntry]
	queue int
	stats TSStats
}

// NewTSTracker creates a tracker from cfg.
func NewTSTracker(cfg TSConfig) *TSTracker {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1 << 15
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60e9
	}
	return &TSTracker{
		flowTable: newFlowTable[tsEntry](cfg.Capacity, cfg.Timeout, cfg.Admit),
		queue:     cfg.Queue,
	}
}

// Stats returns a snapshot of the tracker counters.
func (t *TSTracker) Stats() TSStats {
	s := t.stats
	s.Expired = t.expired
	s.TableFull = t.full
	s.Occupancy = uint64(t.live)
	return s
}

// canonicalKey orients (src,dst) so both directions map to one key;
// fromA reports whether the packet was sent by side A.
func canonicalKey(src, dst netip.Addr, sp, dp uint16) (key FlowKey, fromA bool) {
	if src.Less(dst) || (src == dst && sp <= dp) {
		return FlowKey{Client: src, Server: dst, ClientPort: sp, ServerPort: dp}, true
	}
	return FlowKey{Client: dst, Server: src, ClientPort: dp, ServerPort: sp}, false
}

// Process examines one parsed TCP packet. When the packet's TSecr matches a
// pending TSval from the opposite direction, the sample is stored in *out
// and Process returns true. The packet's own TSval is registered for future
// echoes. flowHash is a direction-independent flow hash; the engine passes
// FlowHash.
//
//ruru:noalloc
func (t *TSTracker) Process(s *pkt.Summary, ts int64, flowHash uint32, out *TSSample) bool {
	t.stats.Packets++
	t.maybeSweep(ts)

	tcp := &s.TCP
	tsval, tsecr, ok := tcp.TimestampOption()
	if !ok {
		t.stats.NoTS++
		return false
	}
	key, fromA := canonicalKey(s.Src(), s.Dst(), tcp.SrcPort, tcp.DstPort)

	idx, found := t.find(flowHash, key)
	if !found {
		if tcp.RST() || t.insert(idx, flowHash, key, ts) == nil {
			return false
		}
	}
	sl := &t.slots[idx]
	sl.lastTS = ts
	e := &sl.val

	if tcp.RST() {
		// Abort: drop state immediately (no further echoes will come).
		matched := false
		if tcp.ACK() && tsecr != 0 {
			matched = t.match(e, fromA, tsecr, ts, s, tcp, out)
		}
		t.remove(idx)
		return matched
	}
	// A FIN is NOT a teardown signal here: the close handshake takes
	// another round trip and echoes of in-flight segments are still
	// arriving. Idle eviction reclaims the entry.

	matched := false
	if tcp.ACK() && tsecr != 0 {
		matched = t.match(e, fromA, tsecr, ts, s, tcp, out)
	}

	// Register this packet's TSval (pure SYNs included: the SYN-ACK echo
	// measures the server leg). Skip duplicates within the window so the
	// first transmission's timestamp is preserved.
	pend := &e.pendA
	pos := &e.posA
	if !fromA {
		pend = &e.pendB
		pos = &e.posB
	}
	dup := false
	for i := range pend {
		if pend[i].used && pend[i].val == tsval {
			dup = true
			break
		}
	}
	if !dup {
		pend[*pos] = tsPending{val: tsval, ts: ts, used: true}
		*pos = (*pos + 1) % tsPendingSlots
		t.stats.Inserted++
	}
	return matched
}

// match looks up tsecr among the opposite direction's pending TSvals.
func (t *TSTracker) match(e *tsEntry, fromA bool, tsecr uint32, ts int64, s *pkt.Summary, tcp *pkt.TCP, out *TSSample) bool {
	// The echo packet came from the sender; it echoes values sent by the
	// OTHER side. Matching measures the tap↔sender leg.
	pend := &e.pendB
	if !fromA {
		pend = &e.pendA
	}
	for i := range pend {
		p := &pend[i]
		if p.used && p.val == tsecr {
			*out = TSSample{
				Echoer:     s.Src(),
				Peer:       s.Dst(),
				EchoerPort: tcp.SrcPort,
				PeerPort:   tcp.DstPort,
				RTT:        ts - p.ts,
				At:         ts,
				Queue:      t.queue,
			}
			p.used = false // first echo only
			t.stats.Samples++
			return true
		}
	}
	t.stats.Unmatched++
	return false
}
