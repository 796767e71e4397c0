package experiments

import (
	"fmt"
	"io"
	"net/netip"
	"sync"
	"time"

	"ruru/internal/core"
	"ruru/internal/pkt"
	"ruru/internal/sketch"
)

// E15Result measures the bounded-memory sketch tier under flow-count
// pressure far beyond the exact tables' byte budget:
//
//   - Capacity: Flows distinct TCP flows arrive across Queues RSS queues,
//     each attempting an exact handshake-table admission; all but a few
//     planted elephants are 40-byte mice. The per-queue tier byte total
//     (fixed sketch overhead + charged exact state) is sampled throughout
//     and must never exceed the per-queue budget — CapHeld is that
//     invariant, and MaxTierBytes the high-water mark actually observed.
//   - Accuracy: after the churn, the heavy-hitter summaries (the exact
//     data /api/topk serves) must rank every planted elephant above every
//     mouse, with volume estimates that never undercount: the cap trades
//     per-mouse state away, not elephant visibility.
type E15Result struct {
	Flows     int // distinct flows driven, all queues
	Queues    int
	Elephants int // planted heavy flows, all queues

	Rate            float64 // flow arrivals/s, all queues
	BudgetBytes     int64   // per-queue cap
	MaxTierBytes    int64   // high-water fixed+live across all samples
	LiveBytes       int64   // charged exact state at the end, all queues
	ExactFlows      uint64  // flows holding an exact record at the end
	SketchOnly      uint64  // admission refusals (mice living sketch-only)
	Promoted        uint64  // elephant-path admissions
	EpsilonBytes    uint64  // worst per-queue count-min error bound εN
	ElephantsRanked int     // planted elephants found above every mouse
	CapHeld         bool    // no sample ever exceeded the budget
}

// E15Config parameterizes the memory-cap soak.
type E15Config struct {
	Flows       int   // distinct flows across all queues (default 10M)
	Queues      int   // default 4
	BudgetBytes int64 // total cap, split per queue (default 64MiB)
	Elephants   int   // planted heavy flows per queue (default 16)
}

// e15Flow builds the i-th distinct flow on queue q: a unique client
// 4-tuple against a fixed service endpoint. 15 bits of i go to the source
// port and the rest to the source address, supporting ~8M flows per queue.
func e15Flow(q, i int) *pkt.Summary {
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

// e15ID is the canonical FlowID of e15Flow(q, i): the client address sorts
// below 192.0.2.1, so it is always endpoint A.
func e15ID(q, i int) sketch.FlowID {
	s := e15Flow(q, i)
	return sketch.FlowID{A: s.IP4.Src, B: s.IP4.Dst, APort: s.TCP.SrcPort, BPort: s.TCP.DstPort}
}

// E15 runs the soak: per queue, one FlowTier owning the budget and one
// HandshakeTable gated by it, single-writer like the real engine workers.
func E15(cfg E15Config, w io.Writer) (E15Result, error) {
	if cfg.Flows <= 0 {
		cfg.Flows = 10_000_000
	}
	if cfg.Queues <= 0 {
		cfg.Queues = 4
	}
	if cfg.BudgetBytes <= 0 {
		cfg.BudgetBytes = 64 << 20
	}
	if cfg.Elephants <= 0 {
		cfg.Elephants = 16
	}
	perQ := cfg.BudgetBytes / int64(cfg.Queues)
	flowsPerQ := cfg.Flows / cfg.Queues
	res := E15Result{
		Flows: flowsPerQ * cfg.Queues, Queues: cfg.Queues,
		Elephants: cfg.Elephants * cfg.Queues, BudgetBytes: perQ,
		CapHeld: true,
	}
	if flowsPerQ <= cfg.Elephants {
		return res, fmt.Errorf("e15: %d flows/queue cannot hold %d elephants", flowsPerQ, cfg.Elephants)
	}

	type queueOut struct {
		tier    *sketch.FlowTier
		exact   uint64
		maxSeen int64
		capOK   bool
		ranked  int
		underEl int // elephants whose estimate undercounts (must stay 0)
	}
	outs := make([]queueOut, cfg.Queues)
	errs := make([]error, cfg.Queues)

	began := time.Now()
	var wg sync.WaitGroup
	for q := 0; q < cfg.Queues; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			out := &outs[q]
			tier, err := sketch.NewFlowTier(sketch.TierConfig{BudgetBytes: perQ, Queue: q})
			if err != nil {
				errs[q] = err
				return
			}
			out.tier = tier
			out.capOK = true
			// Capacity well above what the byte budget can ever admit
			// (miceMax/96B ≈ 130K at the default 16MiB/queue), so the
			// admission cap — not the table's own high-water mark — is the
			// binding constraint under test.
			tbl := core.NewHandshakeTable(core.TableConfig{Capacity: 1 << 18, Queue: q, Admit: tier})

			// Plant elephants evenly through the arrival order so promotion
			// is exercised against every budget phase (empty, mice-full).
			every := flowsPerQ / cfg.Elephants
			const elephantPkts, elephantLen = 120, 1500
			var m core.Measurement
			for i := 0; i < flowsPerQ; i++ {
				s := e15Flow(q, i)
				if i%every == 0 && i/every < cfg.Elephants {
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
					if tb := tier.TotalBytes(); tb > out.maxSeen {
						out.maxSeen = tb
					}
					if tier.TotalBytes() > tier.Budget() {
						out.capOK = false
					}
				}
			}
			if tb := tier.TotalBytes(); tb > out.maxSeen {
				out.maxSeen = tb
			}
			out.capOK = out.capOK && tier.TotalBytes() <= tier.Budget()
			out.exact = uint64(tbl.Len())
			tier.Publish(true)

			// Rank check on the published snapshot — the same data the
			// /api/topk flow view serves: every planted elephant must sit
			// above every mouse, with an estimate >= its true volume.
			snap := tier.Snapshot()
			flows := append([]sketch.Item[sketch.FlowID](nil), snap.Flows...)
			sketch.Rank(flows, sketch.FlowID.Compare)
			planted := make(map[sketch.FlowID]bool, cfg.Elephants)
			for e := 0; e < cfg.Elephants; e++ {
				planted[e15ID(q, e*every)] = true
			}
			for _, it := range flows[:min(cfg.Elephants, len(flows))] {
				if planted[it.Key] {
					out.ranked++
					if it.Count < elephantPkts*elephantLen {
						out.underEl++
					}
				}
			}
		}(q)
	}
	wg.Wait()
	took := time.Since(began)
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}

	res.Rate = float64(res.Flows) / took.Seconds()
	for q := range outs {
		out := &outs[q]
		st := out.tier.Stats()
		res.LiveBytes += st.LiveBytes
		res.ExactFlows += out.exact
		res.SketchOnly += st.SketchOnlyFlows
		res.Promoted += st.Promoted
		if st.EpsilonBytes > res.EpsilonBytes {
			res.EpsilonBytes = st.EpsilonBytes
		}
		if out.maxSeen > res.MaxTierBytes {
			res.MaxTierBytes = out.maxSeen
		}
		res.CapHeld = res.CapHeld && out.capOK
		res.ElephantsRanked += out.ranked
		if out.underEl > 0 {
			return res, fmt.Errorf("e15: queue %d undercounted %d elephants", q, out.underEl)
		}
	}

	if w != nil {
		fmt.Fprintf(w, "E15: bounded-memory soak (%d flows over %d queues, %d elephants, cap %d MiB/queue)\n",
			res.Flows, res.Queues, res.Elephants, res.BudgetBytes>>20)
		fmt.Fprintf(w, "  arrival rate             %12.0f flows/s\n", res.Rate)
		fmt.Fprintf(w, "  tier high-water          %12d bytes (cap %d, held: %v)\n",
			res.MaxTierBytes, res.BudgetBytes, res.CapHeld)
		fmt.Fprintf(w, "  exact / sketch-only      %12d / %d flows (promoted %d)\n",
			res.ExactFlows, res.SketchOnly, res.Promoted)
		fmt.Fprintf(w, "  elephants ranked         %12d / %d (εN = %d bytes)\n",
			res.ElephantsRanked, res.Elephants, res.EpsilonBytes)
	}
	if !res.CapHeld {
		return res, fmt.Errorf("e15: tier bytes exceeded the %d-byte cap (saw %d)", res.BudgetBytes, res.MaxTierBytes)
	}
	if res.ElephantsRanked != res.Elephants {
		return res, fmt.Errorf("e15: only %d/%d planted elephants ranked above the mice",
			res.ElephantsRanked, res.Elephants)
	}
	return res, nil
}
