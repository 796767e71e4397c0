package sketch

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sync/atomic"

	"ruru/internal/core"
	"ruru/internal/hashx"
	"ruru/internal/pkt"
)

// FlowID is the canonical (direction-independent) identity of a flow in
// the heavy-hitter summaries: endpoints ordered so both directions map to
// one key, like the trackers' canonical orientation.
type FlowID struct {
	A, B         netip.Addr
	APort, BPort uint16
}

// String formats the flow as "a:pa<->b:pb".
func (f FlowID) String() string {
	return fmt.Sprintf("%s:%d<->%s:%d", f.A, f.APort, f.B, f.BPort)
}

// TierConfig configures a FlowTier. Only BudgetBytes is required; every
// structure is auto-sized from it (see NewFlowTier).
type TierConfig struct {
	// BudgetBytes is the hard per-queue cap: fixed sketch overhead plus
	// charged exact-table state never exceeds it. Must be at least
	// MinBudgetBytes().
	BudgetBytes int64
	// Width and Depth override the count-min shape (0: auto from budget).
	Width, Depth int
	// TopK overrides the flow heavy-hitter capacity (0: auto).
	TopK int
	// ElephantMinBytes is the volume floor below which a flow is never an
	// elephant regardless of relative rank (default 64KiB). It keeps the
	// early, empty-sketch phase from promoting every flow.
	ElephantMinBytes uint64
	// ElephantReserve is the fraction of the exact-state budget only
	// elephants may occupy (default 0.10): mice stop admitting at
	// (1-reserve) of it, so a promotion never finds the budget fully
	// eaten by mice.
	ElephantReserve float64
	// PublishEvery throttles snapshot publication: a new heavy-hitter
	// snapshot is copied out at the first burst boundary after this many
	// observations (default 4096). Publish(true) overrides.
	PublishEvery int
	// Queue is the owning RSS queue (recorded for debugging).
	Queue int
}

// Snapshot is an immutable copy of the tier's heavy hitters, safe for
// concurrent readers (the /api/topk serving path). Items are unsorted;
// rank with TopK.Top semantics at the merge point.
type Snapshot struct {
	Flows    []Item[FlowID]
	Prefixes []Item[netip.Prefix]
	// PrefixMin bounds the volume of every prefix the summary does not
	// track: its smallest tracked count once full, 0 before (TopK.Min).
	PrefixMin uint64
}

// FlowTier is the per-queue bounded-memory flow tier: a conservative-update
// count-min sketch over flow volume, space-saving flow and source-prefix
// heavy-hitter summaries, and the byte-budget ledger gating exact-table
// admission. It implements core.Admitter.
//
// Ownership follows the tables it guards: single-writer, owned by one
// queue worker. The only cross-goroutine surface is Snapshot(), which
// reads an atomically published copy.
type FlowTier struct {
	cms      *CMS
	flows    *TopK[FlowID]
	prefixes *TopK[netip.Prefix]

	budget   int64 // hard cap
	fixed    int64 // sketch overhead, charged up front
	exactMax int64 // budget - fixed: ceiling for charged exact state
	miceMax  int64 // (1-reserve) * exactMax: ceiling for non-elephants
	live     int64 // charged exact state

	elephantMin uint64

	// Last Observed packet's flow, for Admit (no re-hash).
	lastElephant bool

	promoted   uint64
	demoted    uint64
	sketchOnly uint64

	publishEvery int
	sincePub     int
	snap         atomic.Pointer[Snapshot]

	queue int
}

// minTierShape is the floor every auto-sized structure clamps to.
const (
	minTopK       = 8
	maxFlowTopK   = 4096
	maxPrefixTopK = 1024
	cmsAutoDepth  = 4
)

// MinBudgetBytes returns the smallest legal TierConfig.BudgetBytes: the
// fixed overhead of the minimum-shape sketch structures. A tier built with
// exactly this budget has zero exact-state headroom — every flow lives
// sketch-only — which is the deterministic floor the tight-cap tests use.
func MinBudgetBytes() int64 {
	cms := int64(cmsMinWidth) * cmsAutoDepth * 8
	return cms + int64(minTopK)*topkItemBytes[FlowID]() + int64(minTopK)*topkItemBytes[netip.Prefix]()
}

// NewFlowTier builds a tier. Budget split (documented in ARCHITECTURE.md):
// a quarter of the budget is offered to the sketch structures — half of
// that to the count-min counters, a quarter to the flow top-K, an eighth
// to the prefix top-K, each clamped to its [min,max] shape — and
// everything left after the actual fixed overhead is the exact-state
// ceiling. The hard invariant is fixed + live <= BudgetBytes, always.
func NewFlowTier(cfg TierConfig) (*FlowTier, error) {
	if cfg.BudgetBytes < MinBudgetBytes() {
		return nil, fmt.Errorf("sketch: BudgetBytes %d below minimum %d", cfg.BudgetBytes, MinBudgetBytes())
	}
	share := cfg.BudgetBytes / 4

	width, depth := cfg.Width, cfg.Depth
	if depth <= 0 {
		depth = cmsAutoDepth
	}
	if width <= 0 {
		width = cmsMinWidth
		for int64(width)*2*int64(depth)*8 <= share/2 && width < 1<<20 {
			width *= 2
		}
	}
	cms := NewCMS(width, depth)

	flowK := cfg.TopK
	if flowK <= 0 {
		flowK = clampInt(int((share/4)/topkItemBytes[FlowID]()), minTopK, maxFlowTopK)
	}
	prefixK := clampInt(flowK/4, minTopK, maxPrefixTopK)

	t := &FlowTier{
		cms:          cms,
		flows:        NewTopK[FlowID](flowK),
		prefixes:     NewTopK[netip.Prefix](prefixK),
		budget:       cfg.BudgetBytes,
		elephantMin:  cfg.ElephantMinBytes,
		publishEvery: cfg.PublishEvery,
		queue:        cfg.Queue,
	}
	if t.elephantMin == 0 {
		t.elephantMin = 64 << 10
	}
	if t.publishEvery <= 0 {
		t.publishEvery = 4096
	}
	t.fixed = cms.Bytes() + t.flows.Bytes() + t.prefixes.Bytes()
	if t.fixed > cfg.BudgetBytes {
		// Only possible with explicit Width/Depth/TopK overrides.
		return nil, fmt.Errorf("sketch: fixed overhead %d exceeds budget %d", t.fixed, cfg.BudgetBytes)
	}
	t.exactMax = cfg.BudgetBytes - t.fixed
	reserve := cfg.ElephantReserve
	if reserve <= 0 {
		reserve = 0.10
	}
	if reserve > 0.5 {
		reserve = 0.5
	}
	t.miceMax = int64(float64(t.exactMax) * (1 - reserve))
	t.snap.Store(&Snapshot{})
	return t, nil
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ipBytes is the packet's IP-layer length — the volume unit the sketch
// counts. Summaries without a filled length field (synthetic tests) charge
// the 40-byte header floor so packet counting still works.
func ipBytes(s *pkt.Summary) uint64 {
	var n uint64
	if s.IPv6 {
		n = 40 + uint64(s.IP6.PayloadLen)
	} else {
		n = uint64(s.IP4.TotalLen)
	}
	if n == 0 {
		n = 40
	}
	return n
}

// flowIDOf canonicalizes the packet's 4-tuple.
func flowIDOf(s *pkt.Summary) FlowID {
	src, dst := s.Src(), s.Dst()
	sp, dp := s.TCP.SrcPort, s.TCP.DstPort
	if dst.Less(src) || (src == dst && dp < sp) {
		return FlowID{A: dst, B: src, APort: dp, BPort: sp}
	}
	return FlowID{A: src, B: dst, APort: sp, BPort: dp}
}

// hashFlowID is the 64-bit key hash feeding the count-min rows.
func hashFlowID(id FlowID) uint64 {
	var buf [36]byte
	a := id.A.As16()
	b := id.B.As16()
	copy(buf[0:16], a[:])
	copy(buf[16:32], b[:])
	binary.BigEndian.PutUint16(buf[32:34], id.APort)
	binary.BigEndian.PutUint16(buf[34:36], id.BPort)
	return hashx.FNV1a64(buf[:])
}

// Observe accounts one parsed TCP packet: volume into the count-min
// sketch and both heavy-hitter summaries, and the flow's elephant verdict
// retained for a following Admit. Implements core.Admitter.
//
//ruru:noalloc
func (t *FlowTier) Observe(s *pkt.Summary) {
	if !s.IsTCP() {
		return
	}
	n := ipBytes(s)
	id := flowIDOf(s)
	est := t.cms.Update(hashFlowID(id), n)
	t.flows.Update(id, n)

	bits := 24
	if s.IPv6 {
		bits = 48
	}
	if pfx, err := s.Src().Prefix(bits); err == nil {
		t.prefixes.Update(pfx, n)
	}

	t.lastElephant = t.isElephant(est)
	t.sincePub++
}

// isElephant: the flow's sketched volume clears both the absolute floor
// and the relative heavy-hitter bar (Total/K, the space-saving guarantee
// threshold).
func (t *FlowTier) isElephant(est uint64) bool {
	if est < t.elephantMin {
		return false
	}
	return est >= t.cms.Total()/uint64(t.flows.K())
}

// Admit charges entryBytes of exact state for the last Observed flow.
// Mice admit while the mice ceiling holds; elephants may dig into the
// reserve up to the full exact ceiling. Refusals leave the flow
// sketch-only and are counted. Implements core.Admitter.
//
//ruru:noalloc
func (t *FlowTier) Admit(entryBytes int64) (ok, promoted bool) {
	limit := t.miceMax
	if t.lastElephant {
		limit = t.exactMax
	}
	if t.live+entryBytes > limit {
		t.sketchOnly++
		return false, false
	}
	t.live += entryBytes
	if t.lastElephant {
		t.promoted++
		return true, true
	}
	return true, false
}

// Release returns entryBytes to the budget. Implements core.Admitter.
//
//ruru:noalloc
func (t *FlowTier) Release(entryBytes int64, promoted bool) {
	t.live -= entryBytes
	if t.live < 0 {
		// Release without a matching Admit is a caller bug; clamp so the
		// budget invariant (and the fuzz target asserting it) stays
		// meaningful rather than compounding.
		t.live = 0
	}
	if promoted {
		t.demoted++
	}
}

// Publish copies the heavy-hitter summaries into a fresh Snapshot for
// concurrent readers. With force=false the copy is throttled to once per
// PublishEvery observations (the engine calls it every burst); force=true
// publishes unconditionally (worker shutdown, tests). Implements
// core.Admitter.
func (t *FlowTier) Publish(force bool) {
	if !force && t.sincePub < t.publishEvery {
		return
	}
	snap := &Snapshot{
		Flows:     t.flows.Top(make([]Item[FlowID], 0, t.flows.Len()), 0),
		Prefixes:  t.prefixes.Top(make([]Item[netip.Prefix], 0, t.prefixes.Len()), 0),
		PrefixMin: t.prefixes.Min(),
	}
	t.snap.Store(snap)
	t.sincePub = 0
}

// Snapshot returns the most recently published heavy-hitter copy. Safe
// from any goroutine; never nil.
func (t *FlowTier) Snapshot() *Snapshot { return t.snap.Load() }

// Stats snapshots the ledger. Implements core.Admitter (single-writer).
func (t *FlowTier) Stats() core.SketchStats {
	return core.SketchStats{
		Promoted:        t.promoted,
		Demoted:         t.demoted,
		SketchOnlyFlows: t.sketchOnly,
		EpsilonBytes:    t.cms.ErrorBound(),
		CollisionDepth:  t.cms.CollisionDepth(),
		LiveBytes:       t.live,
		SketchBytes:     t.fixed,
		BudgetBytes:     t.budget,
	}
}

// TotalBytes returns charged exact state plus fixed overhead — the number
// the budget invariant bounds: TotalBytes() <= BudgetBytes, always.
func (t *FlowTier) TotalBytes() int64 { return t.fixed + t.live }

// Budget returns the configured hard cap.
func (t *FlowTier) Budget() int64 { return t.budget }
