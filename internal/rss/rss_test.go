package rss

import (
	"math"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

// referenceHash is the Toeplitz hash as the RSS specification states it,
// one input bit at a time: the definition the tables are checked against
// (and the implementation this package shipped before it had tables).
func referenceHash(key [KeyLen]byte, input []byte) uint32 {
	var result uint32
	// window holds the leftmost 32 bits of the key shifted left by the
	// number of input bits consumed so far.
	window := uint64(key[0])<<56 | uint64(key[1])<<48 |
		uint64(key[2])<<40 | uint64(key[3])<<32 |
		uint64(key[4])<<24 | uint64(key[5])<<16 |
		uint64(key[6])<<8 | uint64(key[7])
	nextKeyByte := 8
	for _, b := range input {
		for bit := 7; bit >= 0; bit-- {
			if b&(1<<uint(bit)) != 0 {
				result ^= uint32(window >> 32)
			}
			window <<= 1
		}
		// Refill the low byte of the 64-bit window every 8 shifts.
		if nextKeyByte < KeyLen {
			window |= uint64(key[nextKeyByte])
			nextKeyByte++
		}
	}
	return result
}

// testKeys are the two shipped keys plus keys that sit on the edges of the
// fold's precondition: random (no period), period 16 bits with other bytes
// than 0x6d5a, and period 16 bits broken only in the last four bytes (the
// part the fold does not cover).
func testKeys(rng *rand.Rand) [][KeyLen]byte {
	keys := [][KeyLen]byte{SymmetricKey, MicrosoftKey}
	for k := 0; k < 8; k++ {
		var key [KeyLen]byte
		rng.Read(key[:])
		keys = append(keys, key)
	}
	var periodic, brokenTail, brokenMid [KeyLen]byte
	for i := range periodic {
		periodic[i] = [2]byte{0xa7, 0x31}[i%2]
	}
	brokenTail, brokenMid = periodic, periodic
	brokenTail[KeyLen-1] ^= 0x01
	brokenMid[21] ^= 0x80
	return append(keys, periodic, brokenTail, brokenMid)
}

func TestHashMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, key := range testKeys(rng) {
		h := New(key)
		// Every length the tables cover, and past them: bytes from the
		// 41st on meet only the key's zero padding.
		for n := 0; n <= KeyLen+8; n++ {
			for rep := 0; rep < 64; rep++ {
				in := make([]byte, n)
				rng.Read(in)
				if got, want := h.Hash(in), referenceHash(key, in); got != want {
					t.Fatalf("key %x fold=%v len %d input %x: Hash = %#08x, reference %#08x",
						key, h.fold, n, in, got, want)
				}
			}
		}
	}
}

func TestFoldOnlyForPeriodicKeys(t *testing.T) {
	keys := testKeys(rand.New(rand.NewSource(18)))
	n := len(keys)
	want := map[int]bool{0: true, n - 3: true, n - 2: true} // symmetric, periodic, brokenTail
	for i, key := range keys {
		if got := New(key).fold; got != want[i] {
			t.Errorf("key %d (%x): fold = %v, want %v", i, key, got, want[i])
		}
	}
	if NewSymmetric() != NewSymmetric() {
		t.Error("NewSymmetric built a second Hasher")
	}
}

func FuzzToeplitz(f *testing.F) {
	f.Add(SymmetricKey[:], []byte{66, 9, 149, 187, 161, 142, 100, 80, 0x0a, 0xea, 0x06, 0xe6})
	f.Add(MicrosoftKey[:], make([]byte, 36))
	f.Add([]byte{0xff}, make([]byte, 45))
	f.Fuzz(func(t *testing.T, keyBytes, input []byte) {
		var key [KeyLen]byte
		copy(key[:], keyBytes)
		if got, want := New(key).Hash(input), referenceHash(key, input); got != want {
			t.Fatalf("key %x input %x: Hash = %#08x, reference %#08x", key, input, got, want)
		}
	})
}

// Known-answer vectors from the Microsoft RSS verification suite
// (the canonical test data every RSS implementation validates against).
func TestToeplitzKnownVectors(t *testing.T) {
	h := New(MicrosoftKey)
	cases := []struct {
		name             string
		src, dst         string
		srcPort, dstPort uint16
		want             uint32
	}{
		// IPv4 with TCP ports.
		{"v4-1", "66.9.149.187", "161.142.100.80", 2794, 1766, 0x51ccc178},
		{"v4-2", "199.92.111.2", "65.69.140.83", 14230, 4739, 0xc626b0ea},
		{"v4-3", "24.19.198.95", "12.22.207.184", 12898, 38024, 0x5c2b394a},
		{"v4-4", "38.27.205.30", "209.142.163.6", 48228, 2217, 0xafc7327f},
		{"v4-5", "153.39.163.191", "202.188.127.2", 44251, 1303, 0x10e828a2},
		// IPv6 with TCP ports.
		{"v6-1", "3ffe:2501:200:1fff::7", "3ffe:2501:200:3::1", 2794, 1766, 0x40207d3d},
		{"v6-2", "3ffe:501:8::260:97ff:fe40:efab", "ff02::1", 14230, 4739, 0xdde51bbf},
		{"v6-3", "3ffe:1900:4545:3:200:f8ff:fe21:67cf", "fe80::200:f8ff:fe21:67cf", 44251, 38024, 0x02d1feef},
	}
	for _, c := range cases {
		src := netip.MustParseAddr(c.src)
		dst := netip.MustParseAddr(c.dst)
		got := h.HashTuple(src, dst, c.srcPort, c.dstPort)
		if got != c.want {
			t.Errorf("%s: hash = %#08x, want %#08x", c.name, got, c.want)
		}
	}
}

func TestSymmetricKeyIsSymmetric(t *testing.T) {
	h := NewSymmetric()
	f := func(a, b [4]byte, sp, dp uint16) bool {
		src := netip.AddrFrom4(a)
		dst := netip.AddrFrom4(b)
		return h.HashTuple(src, dst, sp, dp) == h.HashTuple(dst, src, dp, sp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	f6 := func(a, b [16]byte, sp, dp uint16) bool {
		src := netip.AddrFrom16(a)
		dst := netip.AddrFrom16(b)
		return h.HashTuple(src, dst, sp, dp) == h.HashTuple(dst, src, dp, sp)
	}
	if err := quick.Check(f6, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMicrosoftKeyIsAsymmetric(t *testing.T) {
	// The default key must NOT be symmetric — this is exactly why Ruru
	// needs the symmetric key (the ablation test depends on this difference).
	h := New(MicrosoftKey)
	src := netip.MustParseAddr("66.9.149.187")
	dst := netip.MustParseAddr("161.142.100.80")
	if h.HashTuple(src, dst, 2794, 1766) == h.HashTuple(dst, src, 1766, 2794) {
		t.Fatal("Microsoft key unexpectedly symmetric for the test tuple")
	}
}

func TestV4MappedEqualsV4(t *testing.T) {
	h := NewSymmetric()
	v4 := netip.MustParseAddr("192.0.2.1")
	mapped := netip.MustParseAddr("::ffff:192.0.2.1")
	dst := netip.MustParseAddr("198.51.100.1")
	if h.HashTuple(v4, dst, 80, 443) != h.HashTuple(mapped, dst, 80, 443) {
		t.Fatal("v4-mapped address hashed differently from plain v4")
	}
}

func TestQueueBounds(t *testing.T) {
	for _, n := range []int{0, 1, 2, 4, 7, 16} {
		for _, hash := range []uint32{0, 1, math.MaxUint32, 0xdeadbeef} {
			q := Queue(hash, n)
			if q < 0 || (n > 0 && q >= n) || (n <= 1 && q != 0) {
				t.Errorf("Queue(%#x, %d) = %d out of range", hash, n, q)
			}
		}
	}
}

func TestQueueDistribution(t *testing.T) {
	// Hashing distinct flows over 8 queues should be roughly uniform —
	// within 25% of the mean per queue for 8k flows. This is the load
	// balance property Fig. 2's multi-queue design relies on.
	h := NewSymmetric()
	const queues = 8
	const flows = 8192
	var counts [queues]int
	for i := 0; i < flows; i++ {
		src := netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 1})
		dst := netip.AddrFrom4([4]byte{192, 0, 2, 1})
		hash := h.HashTuple(src, dst, uint16(1024+i), 443)
		counts[Queue(hash, queues)]++
	}
	mean := float64(flows) / queues
	for q, c := range counts {
		if math.Abs(float64(c)-mean) > 0.25*mean {
			t.Errorf("queue %d has %d flows (mean %.0f): distribution too skewed", q, c, mean)
		}
	}
}

func TestHashDeterminism(t *testing.T) {
	h := NewSymmetric()
	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("10.0.0.2")
	a := h.HashTuple(src, dst, 1, 2)
	for i := 0; i < 100; i++ {
		if h.HashTuple(src, dst, 1, 2) != a {
			t.Fatal("hash not deterministic")
		}
	}
}

func TestHashZeroInput(t *testing.T) {
	h := New(MicrosoftKey)
	if got := h.Hash(nil); got != 0 {
		t.Fatalf("Hash(nil) = %#x, want 0", got)
	}
	if got := h.Hash(make([]byte, 12)); got != 0 {
		t.Fatalf("Hash(zeros) = %#x, want 0 (no set bits)", got)
	}
}

// benchTuples is a set of distinct tuples large enough that no predictor or
// cache line remembers one from its last visit.
func benchTuples(v6 bool) (src, dst []netip.Addr, sp, dp []uint16) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4096; i++ {
		var a, b [16]byte
		rng.Read(a[:])
		rng.Read(b[:])
		if v6 {
			src, dst = append(src, netip.AddrFrom16(a)), append(dst, netip.AddrFrom16(b))
		} else {
			src, dst = append(src, netip.AddrFrom4([4]byte(a[:4]))), append(dst, netip.AddrFrom4([4]byte(b[:4])))
		}
		sp, dp = append(sp, uint16(rng.Uint32())), append(dp, uint16(rng.Uint32()))
	}
	return
}

var sinkHash uint32

func benchHashTuple(b *testing.B, h *Hasher, v6 bool) {
	src, dst, sp, dp := benchTuples(v6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(src)
		sinkHash = h.HashTuple(src[k], dst[k], sp[k], dp[k])
	}
}

func BenchmarkHashTupleV4Microsoft(b *testing.B) { benchHashTuple(b, New(MicrosoftKey), false) }
func BenchmarkHashTupleV6Microsoft(b *testing.B) { benchHashTuple(b, New(MicrosoftKey), true) }

// BenchmarkNew is what a caller that builds its own Hasher pays.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkHash = New(MicrosoftKey).tab[0][1]
	}
}
