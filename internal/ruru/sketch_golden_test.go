package ruru

// Sketch-tier golden replays: the bounded-memory tier must be invisible
// when the cap is generous — every measurement bit-identical to the
// exact-mode oracle — and fully accounted when the cap is the deterministic
// minimum (zero exact headroom: every flow refused into sketch-only state,
// none silently lost).

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ruru/internal/nic"
	"ruru/internal/pcap"
)

// TestGoldenSketchGenerousCap replays the ENTIRE corpus (handshake and
// continuous-RTT scenarios alike) with a 64MiB cap: admission admits every
// flow, so counters, measurements, RTT samples and loss events must all
// stay bit-identical to the exact-mode oracles, with zero sketch-only
// flows. This pins "the sketch tier does not perturb measurement" — the
// cap only starts trading accuracy when it binds.
func TestGoldenSketchGenerousCap(t *testing.T) {
	w := goldenWorld(t)
	ents, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatalf("golden corpus missing (generate with RURU_UPDATE=1): %v", err)
	}
	ran := 0
	for _, ent := range ents {
		name, ok := cutSuffix(ent.Name(), ".pcap")
		if !ok {
			continue
		}
		ran++
		t.Run(name, func(t *testing.T) {
			var oracle goldenOracle
			oj, err := os.ReadFile(goldenPath(name, ".oracle.json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(oj, &oracle); err != nil {
				t.Fatal(err)
			}
			replayGolden(t, w, goldenPath(name, ".pcap"), &oracle, 64<<20)
		})
	}
	if ran == 0 {
		t.Fatal("no golden captures found")
	}
}

// TestGoldenSketchTightCap replays the no-SYN-retransmission handshake
// captures with the MINIMUM legal cap: the tiers' fixed overhead consumes
// the whole budget, so the exact tables have zero byte headroom and every
// flow must live sketch-only. The ledger must balance exactly —
// Completed + SketchOnlyFlows == SYNs, nothing vanishes — while the heavy-
// hitter summaries still rank every flow by volume. (Captures with SYN
// retransmission are excluded by construction: a refused flow's
// retransmitted SYN is a second admission attempt, which the event-counted
// ledger would double-count relative to SYNs.)
func TestGoldenSketchTightCap(t *testing.T) {
	w := goldenWorld(t)
	const queues = 2
	cap := MinFlowTableBytes(queues)
	for _, name := range []string{"ipv4_basic", "ipv6", "vlan_qinq"} {
		t.Run(name, func(t *testing.T) {
			var oracle goldenOracle
			oj, err := os.ReadFile(goldenPath(name, ".oracle.json"))
			if err != nil {
				t.Fatalf("golden corpus missing (generate with RURU_UPDATE=1): %v", err)
			}
			if err := json.Unmarshal(oj, &oracle); err != nil {
				t.Fatal(err)
			}
			if oracle.SYNRetrans != 0 {
				t.Fatalf("capture %s has SYN retransmissions; tight-cap ledger requires none", name)
			}

			p, err := New(Config{
				GeoDB:  w.DB(),
				Queues: queues, Overflow: nic.Block, SinkWorkers: 2,
				FlowTableBytes: cap,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- p.Run(ctx) }()

			f, err := os.Open(goldenPath(name, ".pcap"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			r, err := pcap.NewReader(f)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := nic.Drive(ctx, p.Port, 16, false, r.Source()); err != nil {
				t.Fatalf("replay: %v", err)
			}

			// Drain: all TCP packets processed and every SYN's admission
			// refusal recorded.
			deadline := time.Now().Add(10 * time.Second)
			var st Stats
			for {
				st = p.Stats()
				if st.Engine.Packets == oracle.TCPPackets &&
					st.Sketch.SketchOnlyFlows == oracle.SYNs {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("drain timeout: packets %d/%d, sketch-only %d/%d",
						st.Engine.Packets, oracle.TCPPackets,
						st.Sketch.SketchOnlyFlows, oracle.SYNs)
				}
				time.Sleep(2 * time.Millisecond)
			}

			// Zero exact headroom: nothing completes, nothing is charged,
			// and the ledger accounts every flow: each SYN either completed
			// or went sketch-only.
			if st.Engine.Completed != 0 {
				t.Errorf("completed %d handshakes with zero exact headroom", st.Engine.Completed)
			}
			if st.Engine.Completed+st.Sketch.SketchOnlyFlows != oracle.SYNs {
				t.Errorf("ledger violated: completed %d + sketch-only %d != syns %d",
					st.Engine.Completed, st.Sketch.SketchOnlyFlows, oracle.SYNs)
			}
			if st.Sketch.LiveBytes != 0 {
				t.Errorf("live bytes %d with zero exact headroom", st.Sketch.LiveBytes)
			}
			if st.Sketch.SketchBytes > st.Sketch.BudgetBytes || st.Sketch.BudgetBytes > cap {
				t.Errorf("budget accounting: fixed %d, budget %d, cap %d",
					st.Sketch.SketchBytes, st.Sketch.BudgetBytes, cap)
			}
			if st.Sketch.Promoted != 0 || st.Sketch.Demoted != 0 {
				t.Errorf("promotions with zero headroom: %+v", st.Sketch)
			}

			// Shut down so the workers force-publish their final heavy-
			// hitter snapshots: the refused flows are still measured —
			// sketch-only means estimated, not dropped.
			cancel()
			<-done
			flows := p.TopFlows(0)
			if uint64(len(flows)) < oracle.SYNs {
				// Every scripted handshake flow must be ranked; captures may
				// carry extra TCP flows (orphan SYN-ACKs) that rank too.
				t.Fatalf("top-k tracks %d flows, want >= %d (one per scripted flow)",
					len(flows), oracle.SYNs)
			}
			for _, it := range flows {
				if it.Count == 0 {
					t.Errorf("flow %s ranked with zero volume", it.Key)
				}
			}
		})
	}
}
