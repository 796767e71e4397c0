// Package core implements Ruru's primary contribution: passive, flow-level
// end-to-end latency measurement from TCP three-way handshakes observed at a
// tap (paper §2, Figure 1).
//
// For every TCP flow the engine records three timestamps: the first SYN, the
// following SYN-ACK, and the first valid ACK. With the tap between client C
// and server S:
//
//	external = t(SYN-ACK) - t(SYN)  — RTT between the tap and the server
//	internal = t(ACK) - t(SYN-ACK)  — RTT between the tap and the client
//	total    = internal + external  — full end-to-end RTT C↔S
//
// State lives in per-queue HandshakeTables keyed by the flow 4-tuple and
// indexed by its seeded FlowHash. Symmetric RSS guarantees both directions
// of a flow arrive on the same queue, so tables are single-writer and
// lock-free. Tables are fixed-size open-addressed arrays (linear probing
// with backward-shift deletion) and the processing path performs no heap
// allocation.
package core

import (
	"fmt"
	"net/netip"

	"ruru/internal/pkt"
)

// FlowKey identifies a TCP flow oriented client→server (the direction of the
// initial SYN). It is comparable and used as the handshake table key.
type FlowKey struct {
	Client, Server         netip.Addr
	ClientPort, ServerPort uint16
}

// String formats the key as "client:cport->server:sport".
func (k FlowKey) String() string {
	return fmt.Sprintf("%s:%d->%s:%d", k.Client, k.ClientPort, k.Server, k.ServerPort)
}

// Measurement is one completed handshake observation: the unit of data the
// rest of the pipeline (analytics, TSDB, frontends) consumes. Addresses are
// present here and removed by the analytics stage after geo enrichment, per
// the paper's privacy design.
type Measurement struct {
	Flow FlowKey
	IPv6 bool

	// Internal is the tap↔client RTT, External the tap↔server RTT, and
	// Total their sum (the full client↔server RTT), all in nanoseconds.
	Internal, External, Total int64

	// SYNTime, SYNACKTime and ACKTime are the three captured timestamps.
	SYNTime, SYNACKTime, ACKTime int64

	// SYNRetrans counts retransmitted SYNs observed before completion.
	SYNRetrans uint8
	// Queue is the RSS queue that observed the flow.
	Queue int
}

// TableStats is a snapshot of per-table outcomes. All counters are
// cumulative. The table itself is single-writer; for live cross-goroutine
// monitoring read the per-burst snapshots Engine.Stats publishes.
type TableStats struct {
	Packets       uint64 // TCP packets examined
	SYNs          uint64 // initial SYNs inserted
	SYNRetrans    uint64 // retransmitted SYNs for live entries
	SYNACKs       uint64 // SYN-ACKs matched to a pending SYN
	OrphanSYNACKs uint64 // SYN-ACKs with no pending SYN (midstream/asymmetric)
	Completed     uint64 // handshakes completed (measurements emitted)
	InvalidACKs   uint64 // ACKs that failed ISN validation for a pending flow
	MidstreamACKs uint64 // ACKs for flows not in the table (established traffic)
	Aborted       uint64 // entries removed by RST before completion
	Expired       uint64 // entries evicted incomplete (feeds SYN-flood signal)
	ExpiredAwait  uint64 // of Expired: had SYN only (no SYN-ACK ever seen)
	TableFull     uint64 // SYNs dropped because the table was at capacity
	Occupancy     uint64 // current live entries (gauge, not cumulative)
}

// Add sums o into s, field by field: how per-queue tables add up.
func (s *TableStats) Add(o TableStats) {
	s.Packets += o.Packets
	s.SYNs += o.SYNs
	s.SYNRetrans += o.SYNRetrans
	s.SYNACKs += o.SYNACKs
	s.OrphanSYNACKs += o.OrphanSYNACKs
	s.Completed += o.Completed
	s.InvalidACKs += o.InvalidACKs
	s.MidstreamACKs += o.MidstreamACKs
	s.Aborted += o.Aborted
	s.Expired += o.Expired
	s.ExpiredAwait += o.ExpiredAwait
	s.TableFull += o.TableFull
	s.Occupancy += o.Occupancy
}

type entryState uint8

const (
	stateSYN    entryState = iota + 1 // SYN seen, awaiting SYN-ACK
	stateSYNACK                       // SYN-ACK seen, awaiting ACK
)

// hsEntry is the handshake state machine's per-flow state, the val of a
// HandshakeTable slot.
type hsEntry struct {
	synTS     int64
	synAckTS  int64
	clientISN uint32
	serverISN uint32
	state     entryState
	retrans   uint8
	ipv6      bool
}

// TableConfig configures a HandshakeTable.
type TableConfig struct {
	// Capacity is the number of slots (rounded up to a power of two).
	// The table refuses new flows beyond ~85% occupancy. Default 1<<16.
	Capacity int
	// Timeout evicts handshakes with no progress for this many
	// nanoseconds (virtual tap clock). Default 10s.
	Timeout int64
	// Queue is recorded in emitted measurements.
	Queue int
	// OnExpire, when non-nil, is invoked for every entry evicted
	// incomplete: lastTS is the entry's last activity timestamp and
	// awaitingSYNACK is true when no SYN-ACK was ever seen (the
	// unanswered-SYN signal the flood detector consumes). Called from
	// the table's single-writer goroutine; must be fast or hand off.
	OnExpire func(lastTS int64, awaitingSYNACK bool)
	// Admit, when non-nil, gates new-flow inserts against a byte budget:
	// a refused flow allocates no entry and lives sketch-only. Must be
	// owned by the same goroutine as the table (see Admitter).
	Admit Admitter
}

// HandshakeTable tracks in-progress handshakes for one RSS queue.
// It is single-writer: exactly one goroutine may call Process/Sweep.
type HandshakeTable struct {
	flowTable[hsEntry]
	queue    int
	onExpire func(lastTS int64, awaitingSYNACK bool)
	stats    TableStats
}

// NewHandshakeTable creates a table from cfg.
func NewHandshakeTable(cfg TableConfig) *HandshakeTable {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1 << 16
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10e9
	}
	t := &HandshakeTable{
		flowTable: newFlowTable[hsEntry](cfg.Capacity, cfg.Timeout, cfg.Admit),
		queue:     cfg.Queue,
		onExpire:  cfg.OnExpire,
	}
	t.onEvict = t.expire
	return t
}

// expire accounts one handshake evicted incomplete.
func (t *HandshakeTable) expire(lastTS int64, e hsEntry) {
	awaiting := e.state == stateSYN
	if awaiting {
		t.stats.ExpiredAwait++
	}
	if t.onExpire != nil {
		t.onExpire(lastTS, awaiting)
	}
}

// Stats returns a snapshot of the table counters. Single-writer like
// Process: call it from the owning goroutine (or after processing stops).
// For live cross-goroutine monitoring use Engine.Stats, which reads the
// snapshots workers publish once per burst.
func (t *HandshakeTable) Stats() TableStats {
	s := t.stats
	s.Expired = t.expired
	s.TableFull = t.full
	s.Occupancy = uint64(t.live)
	return s
}

// Process examines one parsed TCP packet with capture timestamp ts.
// flowHash is a direction-independent flow hash; the engine passes
// FlowHash. If the packet completes a handshake, the resulting measurement
// is stored in *m and Process returns true.
//
//ruru:noalloc
func (t *HandshakeTable) Process(s *pkt.Summary, ts int64, flowHash uint32, m *Measurement) bool {
	t.stats.Packets++
	t.maybeSweep(ts)

	tcp := &s.TCP
	switch {
	case tcp.RST():
		// RST must be checked before the SYN branches: a SYN|RST packet
		// also satisfies IsSYN (SYN set, ACK clear) and used to insert or
		// restart a tracked flow, leaving the abort path unreachable and
		// the table corrupted by flows that can never complete.
		// Abort either orientation.
		key := FlowKey{Client: s.Src(), Server: s.Dst(), ClientPort: tcp.SrcPort, ServerPort: tcp.DstPort}
		if idx, found := t.find(flowHash, key); found {
			t.remove(idx)
			t.stats.Aborted++
			return false
		}
		rkey := FlowKey{Client: s.Dst(), Server: s.Src(), ClientPort: tcp.DstPort, ServerPort: tcp.SrcPort}
		if idx, found := t.find(flowHash, rkey); found {
			t.remove(idx)
			t.stats.Aborted++
		}
		return false

	case tcp.IsSYN():
		key := FlowKey{Client: s.Src(), Server: s.Dst(), ClientPort: tcp.SrcPort, ServerPort: tcp.DstPort}
		idx, found := t.find(flowHash, key)
		var sl *flowSlot[hsEntry]
		if found {
			sl = &t.slots[idx]
			sl.lastTS = ts
			if e := &sl.val; e.clientISN == tcp.Seq {
				// Retransmitted SYN (possibly after the SYN-ACK, when it
				// was lost client-side): keep the first timestamps — the
				// paper measures from the first SYN — refresh liveness.
				if e.retrans < 255 {
					e.retrans++
				}
				t.stats.SYNRetrans++
				return false
			}
			// A new connection reusing the 4-tuple: restart tracking. The
			// slot's budget charge (and promoted flag) carries over — the
			// record is reused, not reallocated, so the admitter is not
			// re-consulted.
		} else if sl = t.insert(idx, flowHash, key, ts); sl == nil {
			return false
		}
		sl.val = hsEntry{synTS: ts, clientISN: tcp.Seq, state: stateSYN, ipv6: s.IPv6}
		t.stats.SYNs++
		return false

	case tcp.IsSYNACK():
		// Server→client: reverse the tuple to the client orientation.
		key := FlowKey{Client: s.Dst(), Server: s.Src(), ClientPort: tcp.DstPort, ServerPort: tcp.SrcPort}
		idx, found := t.find(flowHash, key)
		if !found {
			t.stats.OrphanSYNACKs++
			return false
		}
		sl := &t.slots[idx]
		e := &sl.val
		switch e.state {
		case stateSYN:
			if tcp.Ack != e.clientISN+1 {
				// SYN-ACK for a different incarnation; ignore.
				t.stats.OrphanSYNACKs++
				return false
			}
			e.synAckTS = ts
			e.serverISN = tcp.Seq
			sl.lastTS = ts
			e.state = stateSYNACK
			t.stats.SYNACKs++
		case stateSYNACK:
			// Retransmitted SYN-ACK: the paper keeps the first
			// ("the following SYN-ACK"); refresh liveness only.
			sl.lastTS = ts
		}
		return false

	// Plain ACK: RST packets were handled first, and any SYN packet
	// matched IsSYN or IsSYNACK above.
	case tcp.ACK():
		key := FlowKey{Client: s.Src(), Server: s.Dst(), ClientPort: tcp.SrcPort, ServerPort: tcp.DstPort}
		idx, found := t.find(flowHash, key)
		if !found {
			t.stats.MidstreamACKs++
			return false
		}
		sl := &t.slots[idx]
		e := &sl.val
		if e.state != stateSYNACK {
			// ACK from client while we've not seen the SYN-ACK: can't
			// measure; leave the entry (SYN-ACK may be reordered).
			t.stats.InvalidACKs++
			return false
		}
		if tcp.Seq != e.clientISN+1 || tcp.Ack != e.serverISN+1 {
			t.stats.InvalidACKs++
			return false
		}
		*m = Measurement{
			Flow:       sl.key,
			IPv6:       e.ipv6,
			External:   e.synAckTS - e.synTS,
			Internal:   ts - e.synAckTS,
			Total:      ts - e.synTS,
			SYNTime:    e.synTS,
			SYNACKTime: e.synAckTS,
			ACKTime:    ts,
			SYNRetrans: e.retrans,
			Queue:      t.queue,
		}
		t.remove(idx)
		t.stats.Completed++
		return true
	}
	return false
}
