package sketch

// The flow-state byte cap under flow-count pressure far beyond the exact
// tables' budget. Distinct TCP flows arrive across several RSS queues, each
// attempting an exact handshake-table admission; all but a few planted
// elephants are 40-byte mice.
//
//   - Capacity: the per-queue tier byte total (fixed sketch overhead +
//     charged exact state), sampled throughout, never exceeds the per-queue
//     budget.
//   - Accuracy: afterwards the published flow summary (what /api/topk
//     serves) ranks every planted elephant above every mouse, with an
//     estimate that never undercounts: the cap trades per-mouse state away,
//     not elephant visibility.

import (
	"math/bits"
	"net/netip"
	"sync"
	"testing"
	"time"

	"ruru/internal/core"
	"ruru/internal/pkt"
)

// soakFlow builds the i-th distinct flow on queue q: a unique client
// 4-tuple against a fixed service endpoint. 15 bits of i go to the source
// port and the rest to the source address, supporting ~8M flows per queue.
func soakFlow(q, i int) *pkt.Summary {
	s := &pkt.Summary{}
	s.IP4.Src = netip.AddrFrom4([4]byte{10, byte(q), byte(i >> 23), byte(i >> 15)})
	s.IP4.Dst = netip.AddrFrom4([4]byte{192, 0, 2, 1})
	s.IP4.TotalLen = 40
	s.Decoded = pkt.LayerEthernet | pkt.LayerIPv4 | pkt.LayerTCP
	s.TCP = pkt.TCP{
		SrcPort: uint16(i&0x7fff) + 1024, DstPort: 443,
		Flags: pkt.TCPSyn, Seq: uint32(i),
	}
	return s
}

// soakID is the canonical FlowID of soakFlow(q, i): the client address
// sorts below 192.0.2.1, so it is always endpoint A.
func soakID(q, i int) FlowID {
	s := soakFlow(q, i)
	return FlowID{A: s.IP4.Src, B: s.IP4.Dst, APort: s.TCP.SrcPort, BPort: s.TCP.DstPort}
}

// soakResult totals one soak over all queues.
type soakResult struct {
	maxTierBytes int64  // high-water fixed+live over every sample
	liveBytes    int64  // charged exact state at the end
	exactFlows   uint64 // flows holding an exact record at the end
	sketchOnly   uint64 // admission refusals: mice living sketch-only
	promoted     uint64 // elephant-path admissions
	ranked       int    // planted elephants found above every mouse
}

// runSoak drives flows distinct flows over queues queues, planting
// elephants heavy flows per queue, under a total budget split per queue:
// one FlowTier owning the budget and one HandshakeTable gated by it per
// queue, single-writer like the engine's workers.
func runSoak(t *testing.T, flows, queues int, budget int64, elephants int) soakResult {
	t.Helper()
	perQ := budget / int64(queues)
	flowsPerQ := flows / queues
	every := flowsPerQ / elephants
	const elephantPkts, elephantLen = 120, 1500

	type queueOut struct {
		exact   uint64
		maxSeen int64
		ranked  int
		under   int // elephants whose estimate undercounts
	}
	outs := make([]queueOut, queues)
	tiers := make([]*FlowTier, queues)
	for q := range tiers {
		tiers[q] = newTestTier(t, TierConfig{BudgetBytes: perQ, Queue: q})
	}

	began := time.Now()
	var wg sync.WaitGroup
	for q := range outs {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			out, tier := &outs[q], tiers[q]
			// Room for every flow of the queue, or far more than the byte
			// budget can ever admit, so the admission cap — not the table's
			// own high-water mark — is the binding constraint under test.
			capacity := min(1<<18, 1<<bits.Len(uint(flowsPerQ)))
			tbl := core.NewHandshakeTable(core.TableConfig{Capacity: capacity, Queue: q, Admit: tier})

			// Plant elephants evenly through the arrival order so promotion
			// is exercised against every budget phase (empty, mice-full).
			var m core.Measurement
			for i := 0; i < flowsPerQ; i++ {
				s := soakFlow(q, i)
				if i%every == 0 && i/every < elephants {
					// A burst of full-size segments: the sketch learns the
					// volume, so the SYN admission takes the elephant path.
					s.IP4.TotalLen = elephantLen
					for p := 0; p < elephantPkts; p++ {
						tier.Observe(s)
					}
				} else {
					tier.Observe(s)
				}
				tbl.Process(s, int64(i+1)*1000, uint32(q)<<28^uint32(i), &m)
				if i%4096 == 0 {
					out.maxSeen = max(out.maxSeen, tier.TotalBytes())
				}
			}
			out.maxSeen = max(out.maxSeen, tier.TotalBytes())
			out.exact = uint64(tbl.Len())
			tier.Publish(true)

			flows := append([]Item[FlowID](nil), tier.Snapshot().Flows...)
			Rank(flows, FlowID.Compare)
			planted := make(map[FlowID]bool, elephants)
			for e := 0; e < elephants; e++ {
				planted[soakID(q, e*every)] = true
			}
			for _, it := range flows[:min(elephants, len(flows))] {
				if planted[it.Key] {
					out.ranked++
					if it.Count < elephantPkts*elephantLen {
						out.under++
					}
				}
			}
		}(q)
	}
	wg.Wait()
	took := time.Since(began)

	var res soakResult
	for q := range outs {
		out := &outs[q]
		st := tiers[q].Stats()
		res.liveBytes += st.LiveBytes
		res.exactFlows += out.exact
		res.sketchOnly += st.SketchOnlyFlows
		res.promoted += st.Promoted
		res.maxTierBytes = max(res.maxTierBytes, out.maxSeen)
		res.ranked += out.ranked
		if out.under > 0 {
			t.Errorf("queue %d undercounted %d elephants", q, out.under)
		}
	}
	t.Logf("%d flows over %d queues: %.0f flows/s; tier high-water %d of %d bytes/queue; "+
		"%d exact / %d sketch-only flows (%d promoted); %d/%d elephants ranked",
		flowsPerQ*queues, queues, float64(flowsPerQ*queues)/took.Seconds(),
		res.maxTierBytes, perQ, res.exactFlows, res.sketchOnly, res.promoted,
		res.ranked, elephants*queues)
	if res.maxTierBytes > perQ {
		t.Errorf("tier bytes exceeded the %d-byte cap (high-water %d)", perQ, res.maxTierBytes)
	}
	if res.ranked != elephants*queues {
		t.Errorf("only %d/%d planted elephants ranked above the mice", res.ranked, elephants*queues)
	}
	// The cap must actually bind: mice refused into sketch-only state.
	if res.sketchOnly == 0 {
		t.Error("cap never bound: zero sketch-only flows")
	}
	return res
}

// TestTierSoakSmall is the soak scaled down until it is cheap and the cap
// still binds: per queue, 12.5 k flows against a 1 MiB cap.
func TestTierSoakSmall(t *testing.T) {
	const queues, budget, elephants = 2, 2 << 20, 8
	res := runSoak(t, 25_000, queues, budget, elephants)
	// Yet some exact records live, every elephant's among them.
	if res.exactFlows == 0 || res.promoted < elephants*queues {
		t.Fatalf("exact tier empty or elephants not promoted: %+v", res)
	}
	if res.liveBytes > budget {
		t.Fatalf("live %d exceeds total cap", res.liveBytes)
	}
}

// TestTierSoakFullScale is the 10M-flow memory-cap soak: tier bytes stay
// under the 16 MiB/queue cap for the whole run while the heavy-hitter view
// still surfaces every planted elephant. Its log line is the soak's
// flows/s figure. Skipped in -short and under coverage instrumentation.
func TestTierSoakFullScale(t *testing.T) {
	if testing.Short() || testing.CoverMode() != "" {
		t.Skip("10M-flow soak skipped in -short and under -cover")
	}
	runSoak(t, 10_000_000, 4, 64<<20, 16)
}
