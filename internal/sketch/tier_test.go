package sketch

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"ruru/internal/pkt"
)

// tierSummary fabricates a parsed TCP summary carrying totalLen volume
// bytes between two synthetic hosts.
func tierSummary(hostA, hostB byte, sp, dp uint16, totalLen uint16) *pkt.Summary {
	s := &pkt.Summary{}
	s.IP4.Src = netip.AddrFrom4([4]byte{10, 0, 0, hostA})
	s.IP4.Dst = netip.AddrFrom4([4]byte{192, 0, 2, hostB})
	s.IP4.TotalLen = totalLen
	s.Decoded = pkt.LayerEthernet | pkt.LayerIPv4 | pkt.LayerTCP
	s.TCP = pkt.TCP{SrcPort: sp, DstPort: dp, Flags: pkt.TCPAck, Seq: 1, Ack: 1}
	return s
}

func newTestTier(t *testing.T, cfg TierConfig) *FlowTier {
	t.Helper()
	tier, err := NewFlowTier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tier
}

func TestTierBudgetValidation(t *testing.T) {
	if _, err := NewFlowTier(TierConfig{BudgetBytes: MinBudgetBytes() - 1}); err == nil {
		t.Fatal("sub-minimum budget accepted")
	}
	tier := newTestTier(t, TierConfig{BudgetBytes: MinBudgetBytes()})
	if tier.exactMax != 0 {
		t.Fatalf("minimum budget should leave zero exact headroom, got %d", tier.exactMax)
	}
}

func TestTierAutoSizingScalesWithBudget(t *testing.T) {
	small := newTestTier(t, TierConfig{BudgetBytes: 1 << 20})
	big := newTestTier(t, TierConfig{BudgetBytes: 64 << 20})
	if big.cms.Width() <= small.cms.Width() {
		t.Fatalf("cms width did not grow: %d vs %d", big.cms.Width(), small.cms.Width())
	}
	if big.flows.K() <= small.flows.K() {
		t.Fatalf("flow top-K did not grow: %d vs %d", big.flows.K(), small.flows.K())
	}
	for _, tier := range []*FlowTier{small, big} {
		if tier.fixed+tier.exactMax != tier.budget {
			t.Fatalf("budget split broken: fixed %d + exactMax %d != %d",
				tier.fixed, tier.exactMax, tier.budget)
		}
		if tier.miceMax >= tier.exactMax {
			t.Fatalf("no elephant reserve: miceMax %d exactMax %d", tier.miceMax, tier.exactMax)
		}
	}
}

func TestTierAdmitReleaseLedger(t *testing.T) {
	tier := newTestTier(t, TierConfig{BudgetBytes: MinBudgetBytes() + 1000})
	const entry = 100
	admitted := 0
	for i := 0; i < 50; i++ {
		ok, promoted := tier.Admit(entry)
		if promoted {
			t.Fatal("mouse promoted without observation")
		}
		if !ok {
			break
		}
		admitted++
		if tier.TotalBytes() > tier.Budget() {
			t.Fatalf("budget exceeded: %d > %d", tier.TotalBytes(), tier.Budget())
		}
	}
	// miceMax = 0.9 * 1000 = 900 → exactly 9 entries of 100 bytes.
	if admitted != 9 {
		t.Fatalf("admitted %d mice, want 9", admitted)
	}
	st := tier.Stats()
	if st.SketchOnlyFlows != 1 || st.LiveBytes != int64(admitted*entry) {
		t.Fatalf("stats = %+v", st)
	}
	for i := 0; i < admitted; i++ {
		tier.Release(entry, false)
	}
	if tier.Stats().LiveBytes != 0 {
		t.Fatalf("live after release = %d", tier.Stats().LiveBytes)
	}
	// Clamp: a spurious Release must not drive the ledger negative.
	tier.Release(entry, false)
	if got := tier.Stats().LiveBytes; got != 0 {
		t.Fatalf("live went negative: %d", got)
	}
}

func TestTierElephantPromotionAndReserve(t *testing.T) {
	tier := newTestTier(t, TierConfig{BudgetBytes: MinBudgetBytes() + 1000})
	const entry = 100

	// Fill the mice region completely.
	for {
		if ok, _ := tier.Admit(entry); !ok {
			break
		}
	}
	if ok, _ := tier.Admit(entry); ok {
		t.Fatal("mouse admitted past miceMax")
	}

	// A fat flow observed repeatedly becomes an elephant once past the
	// 64 KiB floor, and may use the reserve the mice could not touch.
	fat := tierSummary(1, 2, 40000, 443, 1500)
	for i := 0; i < 43; i++ {
		tier.Observe(fat)
	}
	if tier.lastElephant {
		t.Fatal("43x1500B flow, below the elephant floor, judged elephant")
	}
	tier.Observe(fat)
	if !tier.lastElephant {
		t.Fatalf("44x1500B flow not an elephant (est floor %d, total %d)",
			elephantMinBytes, tier.cms.Total())
	}
	ok, promoted := tier.Admit(entry)
	if !ok || !promoted {
		t.Fatalf("elephant refused the reserve: ok=%v promoted=%v", ok, promoted)
	}
	st := tier.Stats()
	if st.Promoted != 1 {
		t.Fatalf("promoted = %d", st.Promoted)
	}
	tier.Release(entry, true)
	if tier.Stats().Demoted != 1 {
		t.Fatalf("demoted = %d", tier.Stats().Demoted)
	}

	// A skinny flow seen once resets the verdict: no promotion.
	tier.Observe(tierSummary(3, 4, 40001, 443, 60))
	if tier.lastElephant {
		t.Fatal("60B flow judged elephant")
	}
}

func TestTierObserveFeedsSketchAndSummaries(t *testing.T) {
	tier := newTestTier(t, TierConfig{BudgetBytes: 1 << 20})
	s := tierSummary(1, 2, 40000, 443, 500)
	for i := 0; i < 4; i++ {
		tier.Observe(s)
	}
	// Reverse direction folds into the same canonical flow.
	rev := tierSummary(2, 1, 443, 40000, 0) // TotalLen 0 → 40B floor
	rev.IP4.Src, rev.IP4.Dst = s.IP4.Dst, s.IP4.Src
	rev.TCP.SrcPort, rev.TCP.DstPort = 443, 40000
	tier.Observe(rev)

	id := flowIDOf(s)
	if got := tier.cms.Estimate(hashFlow(tier.seed, id)); got < 4*500+40 {
		t.Fatalf("cms estimate = %d, want >= 2040", got)
	}
	if got, ok := tier.flows.Estimate(id); !ok || got < 2040 {
		t.Fatalf("flow top-k estimate = %d,%v", got, ok)
	}
	pfx, _ := s.Src().Prefix(24)
	if got, ok := tier.prefixes.Estimate(pfx); !ok || got < 4*500 {
		t.Fatalf("prefix estimate = %d,%v", got, ok)
	}

	// Non-TCP summaries are ignored.
	udp := &pkt.Summary{}
	udp.IP4.Src = s.IP4.Src
	udp.Decoded = pkt.LayerEthernet | pkt.LayerIPv4
	before := tier.cms.Total()
	tier.Observe(udp)
	if tier.cms.Total() != before {
		t.Fatal("non-TCP packet counted")
	}
}

func TestTierPublishThrottleAndForce(t *testing.T) {
	defer func(n int) { publishEvery = n }(publishEvery)
	publishEvery = 8
	tier := newTestTier(t, TierConfig{BudgetBytes: 1 << 20})
	s := tierSummary(1, 2, 40000, 443, 100)
	tier.Observe(s)
	tier.Publish(false)
	if got := tier.Snapshot(); len(got.Flows) != 0 {
		t.Fatalf("throttled publish leaked %d flows", len(got.Flows))
	}
	tier.Publish(true)
	snap := tier.Snapshot()
	if len(snap.Flows) != 1 || len(snap.Prefixes) != 1 {
		t.Fatalf("forced snapshot = %d flows / %d prefixes", len(snap.Flows), len(snap.Prefixes))
	}
	for i := 0; i < 8; i++ {
		tier.Observe(s)
	}
	tier.Publish(false)
	if got := tier.Snapshot(); got == snap {
		t.Fatal("publish threshold reached but snapshot not replaced")
	}
}

func TestTierIPv6PrefixWidth(t *testing.T) {
	tier := newTestTier(t, TierConfig{BudgetBytes: 1 << 20})
	s := &pkt.Summary{IPv6: true}
	s.IP6.Src = netip.MustParseAddr("2001:db8:aa:bb::1")
	s.IP6.Dst = netip.MustParseAddr("2001:db8:cc:dd::2")
	s.IP6.PayloadLen = 960
	s.Decoded = pkt.LayerEthernet | pkt.LayerIPv6 | pkt.LayerTCP
	s.TCP = pkt.TCP{SrcPort: 40000, DstPort: 443, Flags: pkt.TCPAck}
	tier.Observe(s)
	pfx, _ := s.Src().Prefix(48)
	if got, ok := tier.prefixes.Estimate(pfx); !ok || got != 1000 {
		t.Fatalf("v6 /48 estimate = %d,%v (want 40+960)", got, ok)
	}
}

// TestRankTotalOrder: Rank sorts by count descending, then error
// descending, then key ascending, so any shuffle of the same items ranks
// to one order.
func TestRankTotalOrder(t *testing.T) {
	a := netip.MustParseAddr("10.0.0.1")
	b := netip.MustParseAddr("10.0.0.2")
	want := []Item[FlowID]{
		{Key: FlowID{A: a, B: b, APort: 1, BPort: 1}, Count: 9},
		{Key: FlowID{A: a, B: b, APort: 1, BPort: 1}, Count: 5, Err: 2},
		{Key: FlowID{A: a, B: a, APort: 1, BPort: 1}, Count: 5},
		{Key: FlowID{A: a, B: b, APort: 1, BPort: 1}, Count: 5},
		{Key: FlowID{A: a, B: b, APort: 1, BPort: 2}, Count: 5},
		{Key: FlowID{A: a, B: b, APort: 2, BPort: 1}, Count: 5},
		{Key: FlowID{A: b, B: a, APort: 1, BPort: 1}, Count: 5},
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		got := slices.Clone(want)
		rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
		Rank(got, FlowID.Compare)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: ranked %v, want %v", trial, got, want)
		}
	}

	p24 := netip.MustParsePrefix("10.0.0.0/24")
	p16 := netip.MustParsePrefix("10.0.0.0/16")
	p2 := netip.MustParsePrefix("10.0.2.0/24")
	pfx := []Item[netip.Prefix]{{Key: p2, Count: 1}, {Key: p24, Count: 1}, {Key: p16, Count: 1}}
	Rank(pfx, ComparePrefix)
	if pfx[0].Key != p16 || pfx[1].Key != p24 || pfx[2].Key != p2 {
		t.Fatalf("prefixes ranked %v", pfx)
	}
	if s := want[0].Key.String(); s != "10.0.0.1:1<->10.0.0.2:1" {
		t.Fatalf("FlowID.String = %q", s)
	}
}
