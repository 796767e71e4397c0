package sketch

import (
	"encoding/binary"
	"net/netip"
	"testing"

	"ruru/internal/pkt"
)

// FuzzSketch drives a FlowTier through an arbitrary op stream — packet
// observations, admissions, releases — decoded from the fuzz input, and
// asserts the tier's load-bearing invariants after every op:
//
//   - count-min estimates never undercount the exact oracle
//   - per-key estimates are monotone (counters only grow)
//   - the byte budget is never exceeded: TotalBytes() <= Budget(), always
//   - the flow summary answers exactly as the map-based reference TopK fed
//     the same flows (topk_ref_test.go), and its heap, position array and
//     index stay consistent; at k = 8 over up to 256 flows, eviction and
//     the index's backward-shift delete run on most observations
//
// Op encoding, 5 bytes each: [op%4, host, incLo, incHi, entrySize].
func FuzzSketch(f *testing.F) {
	// Seed corpus: an observe-heavy stream, an admit/release churn, and a
	// mixed stream that exercises refusal (tiny budget, fat entries).
	f.Add([]byte{0, 1, 100, 0, 0, 0, 2, 200, 1, 0, 1, 1, 44, 5, 0})
	f.Add([]byte{2, 0, 0, 0, 200, 2, 0, 0, 0, 200, 3, 0, 0, 0, 0, 3, 0, 0, 0, 0})
	f.Add([]byte{0, 7, 220, 5, 0, 2, 7, 0, 0, 255, 1, 7, 220, 5, 0, 3, 0, 0, 0, 0, 2, 9, 0, 0, 64})
	// Flow churn: 64 observations over 24 hosts with tied volumes, three
	// times the flow summary's k.
	var churn []byte
	for i := 0; i < 64; i++ {
		churn = append(churn, 0, byte(i*7%24), byte(1+i%3), 0, 0)
	}
	f.Add(churn)

	f.Fuzz(func(t *testing.T, data []byte) {
		tier, err := NewFlowTier(TierConfig{BudgetBytes: MinBudgetBytes() + 4096})
		if err != nil {
			t.Fatal(err)
		}
		if k := tier.flows.K(); k != minTopK {
			t.Fatalf("flow summary k = %d, want %d", k, minTopK)
		}
		ref := newRefTopK[FlowID](tier.flows.K())
		truth := make(map[uint64]uint64)
		lastEst := make(map[uint64]uint64)
		type charge struct {
			bytes    int64
			promoted bool
		}
		var charges []charge

		var s pkt.Summary
		s.Decoded = pkt.LayerEthernet | pkt.LayerIPv4 | pkt.LayerTCP
		s.IP4.Dst = netip.AddrFrom4([4]byte{192, 0, 2, 1})
		s.TCP = pkt.TCP{SrcPort: 40000, DstPort: 443, Flags: pkt.TCPAck, Seq: 1, Ack: 1}

		for len(data) >= 5 {
			op, host := data[0]%4, data[1]
			inc := binary.LittleEndian.Uint16(data[2:4])%1500 + 1
			entry := int64(data[4]) + 1
			data = data[5:]

			switch op {
			case 0, 1:
				s.IP4.Src = netip.AddrFrom4([4]byte{10, 0, 0, host})
				s.IP4.TotalLen = inc
				tier.Observe(&s)
				id := flowIDOf(&s)
				ref.Update(id, uint64(inc))
				h := hashFlow(tier.seed, id)
				truth[h] += uint64(inc)
				est := tier.cms.Estimate(h)
				if est < truth[h] {
					t.Fatalf("underestimate: host %d est %d < truth %d", host, est, truth[h])
				}
				if est < lastEst[h] {
					t.Fatalf("non-monotone: host %d est %d after %d", host, est, lastEst[h])
				}
				lastEst[h] = est
			case 2:
				if ok, promoted := tier.Admit(entry); ok {
					charges = append(charges, charge{entry, promoted})
				}
			case 3:
				if n := len(charges); n > 0 {
					c := charges[n-1]
					charges = charges[:n-1]
					tier.Release(c.bytes, c.promoted)
				}
			}
			checkTopK(t, tier.flows)
			got, want := tier.flows.Top(nil, 0), ref.Top(nil, 0)
			if len(got) != len(want) {
				t.Fatalf("flow summary tracks %d flows, reference %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("flow item %d = %+v, reference %+v", i, got[i], want[i])
				}
			}
			if tier.flows.Min() != ref.Min() || tier.flows.Evictions() != ref.Evictions() {
				t.Fatalf("flow summary min/evictions %d/%d, reference %d/%d",
					tier.flows.Min(), tier.flows.Evictions(), ref.Min(), ref.Evictions())
			}
			if tier.TotalBytes() > tier.Budget() {
				t.Fatalf("budget exceeded: %d > %d (live %d, %d charges)",
					tier.TotalBytes(), tier.Budget(), tier.Stats().LiveBytes, len(charges))
			}
		}

		// End-state ledger: the stats must balance what we actually did.
		st := tier.Stats()
		var held int64
		for _, c := range charges {
			held += c.bytes
		}
		if st.LiveBytes != held {
			t.Fatalf("ledger drift: LiveBytes %d, held %d", st.LiveBytes, held)
		}
		if st.Demoted > st.Promoted {
			t.Fatalf("more demotions (%d) than promotions (%d)", st.Demoted, st.Promoted)
		}
	})
}
