package sketch

import (
	"encoding/binary"
	"net/netip"
	"testing"

	"ruru/internal/core"
	"ruru/internal/pkt"
)

// FuzzSketch drives a FlowTier through an arbitrary op stream — packet
// observations, admissions, releases — decoded from the fuzz input, and
// asserts the tier's load-bearing invariants after every op:
//
//   - count-min estimates never undercount the exact oracle
//   - per-key estimates are monotone (counters only grow)
//   - the byte budget is never exceeded: TotalBytes() <= Budget(), always
//   - the flow hash Observe returns is core.FlowHash of the packet, equals
//     FlowHash of the reversed packet and hashFlow of the packet's FlowID,
//     for the observed IPv4 packet and an IPv6 one built from the same op
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
				h := tier.Observe(&s)
				if want := checkFlowHash(t, tier.seed, &s); h != want {
					t.Fatalf("Observe returned %#x, FlowHash %#x", h, want)
				}
				checkFlowHash(t, tier.seed, v6Summary(host, byte(entry), inc))
				id := flowIDOf(&s)
				ref.Update(id, uint64(inc))
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

// checkFlowHash asserts that the packet's flow hash is direction-
// independent and agrees with the flow summary's hash of its FlowID, and
// returns it.
func checkFlowHash(t *testing.T, seed uint64, s *pkt.Summary) uint64 {
	t.Helper()
	h := core.FlowHash(seed, s)
	rev := *s
	rev.IP4.Src, rev.IP4.Dst = s.IP4.Dst, s.IP4.Src
	rev.IP6.Src, rev.IP6.Dst = s.IP6.Dst, s.IP6.Src
	rev.TCP.SrcPort, rev.TCP.DstPort = s.TCP.DstPort, s.TCP.SrcPort
	if r := core.FlowHash(seed, &rev); r != h {
		t.Fatalf("%v: FlowHash %#x, reversed %#x", flowIDOf(s), h, r)
	}
	if f := hashFlow(seed, flowIDOf(s)); f != h {
		t.Fatalf("%v: FlowHash %#x, hashFlow %#x", flowIDOf(s), h, f)
	}
	return h
}

// v6Summary is an IPv6 TCP packet whose endpoints come from one fuzz op:
// the host and entry bytes pick the source address, inc both ports.
func v6Summary(host, entry byte, inc uint16) *pkt.Summary {
	s := &pkt.Summary{IPv6: true}
	s.Decoded = pkt.LayerEthernet | pkt.LayerIPv6 | pkt.LayerTCP
	s.IP6.Src = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 14: host, 15: entry})
	s.IP6.Dst = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: 1})
	s.TCP = pkt.TCP{SrcPort: inc, DstPort: inc >> 3, Flags: pkt.TCPAck}
	return s
}
