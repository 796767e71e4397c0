package ruru

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"ruru/internal/pkt"
	"ruru/internal/sketch"
)

// TestTopPrefixesNeverUndercounts checks the cross-queue prefix merge
// against an exact per-prefix oracle. Each queue's summary holds 8 prefixes
// of the 40 it sees, so a prefix one queue evicted is still tracked by
// another: for every merged item Count must cover the true volume and
// Count-Err must not exceed it.
func TestTopPrefixesNeverUndercounts(t *testing.T) {
	const queues, prefixes = 3, 40
	p := &Pipeline{}
	for q := 0; q < queues; q++ {
		tier, err := sketch.NewFlowTier(sketch.TierConfig{BudgetBytes: 1 << 20, TopK: 8, Queue: q})
		if err != nil {
			t.Fatal(err)
		}
		p.Sketch = append(p.Sketch, tier)
	}
	truth := make(map[netip.Prefix]uint64)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		q := rng.Intn(queues)
		host := byte(1 + rng.Intn(prefixes)*rng.Intn(prefixes)/prefixes) // skewed
		s := &pkt.Summary{Decoded: pkt.LayerEthernet | pkt.LayerIPv4 | pkt.LayerTCP}
		s.IP4.Src = netip.AddrFrom4([4]byte{10, 0, host, 1})
		s.IP4.Dst = netip.AddrFrom4([4]byte{192, 0, 2, 1})
		s.IP4.TotalLen = uint16(40 + rng.Intn(1460))
		s.TCP = pkt.TCP{SrcPort: uint16(40000 + q), DstPort: 443, Flags: pkt.TCPAck}
		p.Sketch[q].Observe(s)
		truth[netip.PrefixFrom(s.IP4.Src, 24).Masked()] += uint64(s.IP4.TotalLen)
	}
	for _, tier := range p.Sketch {
		tier.Publish(true)
	}
	items := p.TopPrefixes(0)
	if len(items) == 0 {
		t.Fatal("no prefixes")
	}
	for _, it := range items {
		want := truth[it.Key]
		if it.Count < want {
			t.Errorf("%v: count %d undercounts the true %d", it.Key, it.Count, want)
		}
		if it.Count-it.Err > want {
			t.Errorf("%v: lower bound %d exceeds the true %d", it.Key, it.Count-it.Err, want)
		}
	}
}

// TestTopKTiesRankDeterministically: with every count tied, the n cutoff
// of /api/topk falls inside a tie, and which items make it must not depend
// on map iteration or sort stability. Both views must return identical
// items on every call, ranked by key within the tie.
func TestTopKTiesRankDeterministically(t *testing.T) {
	const queues, hosts = 3, 60
	p := &Pipeline{}
	for q := 0; q < queues; q++ {
		tier, err := sketch.NewFlowTier(sketch.TierConfig{BudgetBytes: 1 << 20, Queue: q})
		if err != nil {
			t.Fatal(err)
		}
		p.Sketch = append(p.Sketch, tier)
	}
	for h := 0; h < hosts; h++ {
		s := &pkt.Summary{Decoded: pkt.LayerEthernet | pkt.LayerIPv4 | pkt.LayerTCP}
		s.IP4.Src = netip.AddrFrom4([4]byte{10, 0, byte(h), 1})
		s.IP4.Dst = netip.AddrFrom4([4]byte{192, 0, 2, 1})
		s.IP4.TotalLen = 100
		s.TCP = pkt.TCP{SrcPort: 40000, DstPort: 443, Flags: pkt.TCPAck}
		p.Sketch[h%queues].Observe(s)
	}
	for _, tier := range p.Sketch {
		tier.Publish(true)
	}
	const n = 7
	flows, prefixes := p.TopFlows(n), p.TopPrefixes(n)
	if len(flows) != n || len(prefixes) != n {
		t.Fatalf("got %d flows, %d prefixes; want %d each", len(flows), len(prefixes), n)
	}
	for i := 1; i < n; i++ {
		if flows[i-1].Key.Compare(flows[i].Key) >= 0 {
			t.Fatalf("tied flows out of key order: %v before %v", flows[i-1].Key, flows[i].Key)
		}
		if sketch.ComparePrefix(prefixes[i-1].Key, prefixes[i].Key) >= 0 {
			t.Fatalf("tied prefixes out of key order: %v before %v", prefixes[i-1].Key, prefixes[i].Key)
		}
	}
	for call := 0; call < 20; call++ {
		if got := p.TopFlows(n); !slices.Equal(got, flows) {
			t.Fatalf("call %d: flows %v, first call %v", call, got, flows)
		}
		if got := p.TopPrefixes(n); !slices.Equal(got, prefixes) {
			t.Fatalf("call %d: prefixes %v, first call %v", call, got, prefixes)
		}
	}
}
