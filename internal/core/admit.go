package core

import "ruru/internal/pkt"

// Admitter is the bounded-memory admission gate the per-flow tables consult
// before allocating exact state (ROADMAP item 2: sketch-based flow state).
// When a table's Admit field is set, a new-flow insert no longer allocates
// unconditionally: the admitter decides, against a hard byte budget, whether
// the flow earns an exact record or lives sketch-only.
//
// The contract mirrors the tables' single-writer discipline: one Admitter
// instance belongs to one RSS queue, and every method except a concurrent
// reader's snapshot accessor (see internal/sketch) is called only from that
// queue's worker goroutine, in packet order:
//
//	Observe(pkt)            // once per parsed TCP packet, BEFORE Process
//	Admit(bytes)            // zero or more times, for the Observed packet's flow
//	Release(bytes, prom)    // when an exact record is removed, any later packet
//
// Observe accounts the packet's flow volume in the sketch and retains the
// flow's identity, so Admit needs no re-hash: it rules on "the flow of the
// most recently Observed packet". Observe also returns the packet's flow
// hash, FlowHash under the admitter's seed, which the engine passes on to
// the queue's tables, so a packet is hashed once. Admit charges entryBytes
// against the budget and reports whether the flow was let in and whether
// it came through the elephant (promotion) path; a refusal is counted
// SketchOnlyFlows. Release returns the bytes when the record is freed
// (completion, abort, eviction) and balances Promoted with Demoted.
type Admitter interface {
	// Observe accounts one parsed TCP packet in the sketch tier and
	// returns its flow hash: direction-independent, and the same for
	// every packet of the flow.
	Observe(s *pkt.Summary) uint64
	// Admit asks to allocate entryBytes of exact state for the flow of
	// the last Observed packet. promoted reports the elephant path.
	Admit(entryBytes int64) (ok, promoted bool)
	// Release returns entryBytes of exact state to the budget; promoted
	// must echo what Admit returned for this record.
	Release(entryBytes int64, promoted bool)
	// Publish makes heavy-hitter/stats state visible to concurrent
	// readers. Called at burst boundaries (with force=false, the tier may
	// throttle) and once at worker shutdown (force=true).
	Publish(force bool)
	// Stats snapshots the sketch counters. Single-writer, like the
	// tables' Stats: the engine copies it into the per-queue stats cell.
	Stats() SketchStats
}

// SketchStats surfaces the accuracy cost of bounded memory — the induced
// error is measured, never silent. Counters are cumulative per queue;
// Engine.Stats aggregates them (sums, except the error bounds which take
// the worst queue).
type SketchStats struct {
	// Promoted counts exact-table admissions that went through the
	// elephant path (the flow's sketched volume crossed the heavy-hitter
	// threshold); Demoted counts releases of promoted records, so
	// Promoted-Demoted is the live promoted population.
	Promoted uint64
	Demoted  uint64
	// SketchOnlyFlows counts admission refusals: flow-state allocation
	// attempts that stayed sketch-only because the byte budget was
	// exhausted. Event-counted, like TableFull: a flow retrying its SYN
	// against a full budget counts once per attempt.
	SketchOnlyFlows uint64
	// EpsilonBytes is the count-min error bound εN in bytes (ε = e/width,
	// N = total bytes sketched): any volume estimate overshoots the true
	// volume by at most this, with probability 1-δ per query (δ = e^-depth).
	EpsilonBytes uint64
	// CollisionDepth is the expected number of distinct flows sharing one
	// sketch counter (distinct flows / width, rounded up) — the "how
	// crowded is the sketch" gauge operators watch before EpsilonBytes
	// grows teeth.
	CollisionDepth uint64
	// LiveBytes is exact-tier state currently charged against the budget,
	// SketchBytes the fixed sketch overhead, BudgetBytes the hard cap
	// (LiveBytes+SketchBytes never exceeds it).
	LiveBytes   int64
	SketchBytes int64
	BudgetBytes int64
}

// add folds one queue's ledger into s: counters and byte gauges sum; the
// error bounds take the worst queue, since each queue's sketch answers
// only for its own flows.
func (s *SketchStats) add(o SketchStats) {
	s.Promoted += o.Promoted
	s.Demoted += o.Demoted
	s.SketchOnlyFlows += o.SketchOnlyFlows
	s.EpsilonBytes = max(s.EpsilonBytes, o.EpsilonBytes)
	s.CollisionDepth = max(s.CollisionDepth, o.CollisionDepth)
	s.LiveBytes += o.LiveBytes
	s.SketchBytes += o.SketchBytes
	s.BudgetBytes += o.BudgetBytes
}

// Per-record budget charges: the in-memory size of one slot (table header
// plus the tracker's per-flow state) in each exact table.
var (
	// HandshakeEntryBytes is the budget charge for one handshake-table slot.
	HandshakeEntryBytes = slotBytes[hsEntry]()
	// TSEntryBytes is the budget charge for one timestamp-tracker slot.
	TSEntryBytes = slotBytes[tsEntry]()
	// SeqEntryBytes is the budget charge for one seq-tracker slot.
	SeqEntryBytes = slotBytes[seqEntry]()
)
