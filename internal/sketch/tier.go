package sketch

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"slices"
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

// Compare orders flows by A, B, APort, then BPort: the key order that
// breaks count ties when ranking.
func (f FlowID) Compare(o FlowID) int {
	if c := f.A.Compare(o.A); c != 0 {
		return c
	}
	if c := f.B.Compare(o.B); c != 0 {
		return c
	}
	if c := cmp.Compare(f.APort, o.APort); c != 0 {
		return c
	}
	return cmp.Compare(f.BPort, o.BPort)
}

// ComparePrefix orders prefixes by address, then length: the key order
// that breaks count ties when ranking.
func ComparePrefix(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return cmp.Compare(a.Bits(), b.Bits())
}

// Rank sorts merged heavy hitters into the order /api/topk serves: Count
// descending, then Err descending, then key ascending by keyCmp. The order
// is total, so a cut at any n returns the same items on every call.
func Rank[K comparable](items []Item[K], keyCmp func(a, b K) int) {
	slices.SortFunc(items, func(a, b Item[K]) int {
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Err, a.Err); c != 0 {
			return c
		}
		return keyCmp(a.Key, b.Key)
	})
}

// TierConfig configures a FlowTier. Only BudgetBytes is required; every
// structure is auto-sized from it (see NewFlowTier), and a fixed 10% of
// the exact-state budget is reserved for elephants.
type TierConfig struct {
	// BudgetBytes is the hard per-queue cap: fixed sketch overhead plus
	// charged exact-table state never exceeds it. Must be at least
	// MinBudgetBytes().
	BudgetBytes int64
	// TopK overrides the flow heavy-hitter capacity (0: auto).
	TopK int
	// ElephantMinBytes is the volume floor below which a flow is never an
	// elephant regardless of relative rank (default 64KiB). It keeps the
	// early, empty-sketch phase from promoting every flow.
	ElephantMinBytes uint64
	// PublishEvery throttles snapshot publication: a new heavy-hitter
	// snapshot is copied out at the first burst boundary after this many
	// observations (default 4096). Publish(true) overrides.
	PublishEvery int
	// Queue is the owning RSS queue (recorded for debugging).
	Queue int
}

// Snapshot is an immutable copy of the tier's heavy hitters, safe for
// concurrent readers (the /api/topk serving path). Items are in heap
// order, unsorted; rank them with Rank at the merge point.
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
	seed     uint64 // keys the flow hash and hashPrefix, drawn at random per tier
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

// elephantReserve is the fraction of the exact-state budget only elephants
// may occupy: mice stop admitting at (1-elephantReserve) of it, so a
// promotion never finds the budget fully eaten by mice.
const elephantReserve = 0.10

// MinBudgetBytes returns the smallest legal TierConfig.BudgetBytes: the
// fixed overhead of the minimum-shape sketch structures. A tier built with
// exactly this budget has zero exact-state headroom — every flow lives
// sketch-only — which is the deterministic floor the tight-cap tests use.
func MinBudgetBytes() int64 {
	cms := int64(cmsMinWidth) * cmsAutoDepth * 8
	return cms + TopKBytes[FlowID](minTopK) + TopKBytes[netip.Prefix](minTopK)
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

	width := cmsMinWidth
	for int64(width)*2*cmsAutoDepth*8 <= share/2 && width < 1<<20 {
		width *= 2
	}
	cms := NewCMS(width, cmsAutoDepth)

	flowK := cfg.TopK
	if flowK <= 0 {
		flowK = clampInt(int((share/4)/topkEntryBytes[FlowID]()), minTopK, maxFlowTopK)
	}
	prefixK := clampInt(flowK/4, minTopK, maxPrefixTopK)

	seed := rand.Uint64()
	t := &FlowTier{
		seed:         seed,
		cms:          cms,
		flows:        NewTopK(flowK, func(id FlowID) uint64 { return hashFlow(seed, id) }),
		prefixes:     NewTopK(prefixK, func(p netip.Prefix) uint64 { return hashPrefix(seed, p) }),
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
		// Only possible with an explicit TopK override.
		return nil, fmt.Errorf("sketch: fixed overhead %d exceeds budget %d", t.fixed, cfg.BudgetBytes)
	}
	t.exactMax = cfg.BudgetBytes - t.fixed
	t.miceMax = int64(float64(t.exactMax) * (1 - elephantReserve))
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

// Hashing: one seeded 64-bit hash per packet, core.FlowHash under the
// tier's seed. The count-min rows and the flow index both take their
// positions from that one value, and the engine hands it to the queue's
// flow tables as their index, so a packet is hashed once. hashFlow, the
// flow summary's hash for lookups by FlowID, is the same function, so a
// lookup finds what Observe counted. The seed is per tier and random: the
// flow index is open-addressed, and without a secret seed crafted tuples
// could pile onto one probe run on a monitor of untrusted traffic.

// hashFlow is core.FlowHash of a canonical flow.
//
//ruru:noalloc
func hashFlow(seed uint64, id FlowID) uint64 {
	return core.FlowHashOf(seed, id.A, id.APort, id.B, id.BPort)
}

// hashPrefix is the prefix summary's hash, with the same mixers.
//
//ruru:noalloc
func hashPrefix(seed uint64, p netip.Prefix) uint64 {
	return hashx.Fmix(hashx.Mix(hashx.MixAddr(seed, p.Addr()), uint64(p.Bits())))
}

// Observe accounts one parsed TCP packet: volume into the count-min
// sketch and both heavy-hitter summaries, and the flow's elephant verdict
// retained for a following Admit. It returns the packet's flow hash,
// core.FlowHash under the tier's seed (0 for a non-TCP packet), which the
// engine uses to index the queue's flow tables. Implements core.Admitter.
//
//ruru:noalloc
func (t *FlowTier) Observe(s *pkt.Summary) uint64 {
	if !s.IsTCP() {
		return 0
	}
	n := ipBytes(s)
	h := core.FlowHash(t.seed, s)
	est := t.cms.Update(h, n)
	t.flows.add(flowIDOf(s), h, n)

	bits := 24
	if s.IPv6 {
		bits = 48
	}
	if pfx, err := s.Src().Prefix(bits); err == nil {
		t.prefixes.add(pfx, hashPrefix(t.seed, pfx), n)
	}

	t.lastElephant = t.isElephant(est)
	t.sincePub++
	return h
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
// concurrent readers, in heap order: ranking is left to the reader's merge.
// With force=false the copy is throttled to once per PublishEvery
// observations (the engine calls it every burst); force=true publishes
// unconditionally (worker shutdown, tests). Implements core.Admitter.
func (t *FlowTier) Publish(force bool) {
	if !force && t.sincePub < t.publishEvery {
		return
	}
	snap := &Snapshot{
		Flows:     t.flows.appendHeap(make([]Item[FlowID], 0, t.flows.Len())),
		Prefixes:  t.prefixes.appendHeap(make([]Item[netip.Prefix], 0, t.prefixes.Len())),
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
