package sketch

import (
	"hash/maphash"
	"math/rand"
	"net/netip"
	"testing"
	"unsafe"
)

var testSeed = maphash.MakeSeed()

// testHash is the index hash the summary tests build TopKs with.
func testHash[K comparable](k K) uint64 { return maphash.Comparable(testSeed, k) }

// checkTopK asserts the indexed heap's structural invariants: the heap
// property, pos as the inverse of the heap's slot column, every slot's
// count and stored hash in sync, and an index holding exactly the tracked
// slots, each reachable from its home cell.
func checkTopK[K comparable](t testing.TB, tk *TopK[K]) {
	t.Helper()
	if len(tk.slots) != len(tk.heap) || len(tk.heap) > tk.k {
		t.Fatalf("%d slots, %d heap entries, k %d", len(tk.slots), len(tk.heap), tk.k)
	}
	for i, e := range tk.heap {
		if i > 0 && tk.heap[(i-1)/2].count > e.count {
			t.Fatalf("heap violated at %d", i)
		}
		if int(tk.pos[e.slot]) != i {
			t.Fatalf("pos[%d] = %d, heap position %d", e.slot, tk.pos[e.slot], i)
		}
		if it := tk.slots[e.slot]; it.Count != e.count {
			t.Fatalf("slot %d count %d, heap count %d", e.slot, it.Count, e.count)
		}
	}
	cells := 0
	for _, c := range tk.index {
		if c != 0 {
			cells++
		}
	}
	if cells != len(tk.slots) {
		t.Fatalf("index holds %d cells for %d slots", cells, len(tk.slots))
	}
	for s, it := range tk.slots {
		h := tk.hash(it.Key)
		if tk.hashes[s] != h {
			t.Fatalf("slot %d stored hash %#x, key hashes to %#x", s, tk.hashes[s], h)
		}
		if got := tk.find(it.Key, h); got != int32(s) {
			t.Fatalf("slot %d's key found at slot %d", s, got)
		}
	}
}

func TestTopKBasics(t *testing.T) {
	tk := NewTopK(8, testHash[string])
	if tk.K() != 8 || tk.Len() != 0 || tk.Min() != 0 {
		t.Fatalf("fresh summary: k=%d len=%d min=%d", tk.K(), tk.Len(), tk.Min())
	}
	tk.Update("a", 10)
	tk.Update("b", 5)
	tk.Update("a", 1)
	if got, ok := tk.Estimate("a"); !ok || got != 11 {
		t.Fatalf("estimate a = %d,%v", got, ok)
	}
	if !tk.Contains("b") || tk.Contains("z") {
		t.Fatal("containment wrong")
	}
	if _, ok := tk.Estimate("z"); ok {
		t.Fatal("untracked key estimated")
	}
	if k := NewTopK(0, testHash[string]).K(); k != 1024 {
		t.Fatalf("default capacity %d", k)
	}
	if tk.Total() != 16 {
		t.Fatalf("total = %d", tk.Total())
	}
	top := tk.Top(nil, 1)
	if len(top) != 1 || top[0].Key != "a" || top[0].Count != 11 || top[0].Err != 0 {
		t.Fatalf("top = %+v", top)
	}
}

func TestTopKReplacementInheritsError(t *testing.T) {
	tk := NewTopK(8, testHash[int])
	for i := 0; i < 8; i++ {
		tk.Update(i, uint64(10+i))
	}
	// Key 100 replaces the minimum (key 0, count 10) and inherits it.
	tk.Update(100, 1)
	if tk.Contains(0) {
		t.Fatal("minimum not evicted")
	}
	got, ok := tk.Estimate(100)
	if !ok || got != 11 {
		t.Fatalf("newcomer count = %d", got)
	}
	items := tk.Top(nil, 0)
	for _, it := range items {
		if it.Key == 100 && it.Err != 10 {
			t.Fatalf("newcomer err = %d, want inherited 10", it.Err)
		}
	}
	if tk.Evictions() != 1 {
		t.Fatalf("evictions = %d", tk.Evictions())
	}
}

// TestTopKPropertyVsOracle: randomized trials against an exact frequency
// map (seed printed on failure). The space-saving contract:
//
//   - tracked counts never undercount: Count >= truth
//   - the error bound is honest: Count - Err <= truth
//   - superset guarantee: every key with truth > Total/k is tracked
func TestTopKPropertyVsOracle(t *testing.T) {
	const trials = 60
	for seed := int64(1); seed <= trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 16 + rng.Intn(64)
		tk := NewTopK(k, testHash[uint64])
		truth := make(map[uint64]uint64)

		nkeys := k * (2 + rng.Intn(8))
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(nkeys-1))
		updates := 3000 + rng.Intn(10000)
		for u := 0; u < updates; u++ {
			key := zipf.Uint64()
			inc := uint64(1 + rng.Intn(100))
			truth[key] += inc
			tk.Update(key, inc)
		}

		if tk.Total() == 0 {
			t.Fatalf("seed %d: zero total", seed)
		}
		for _, it := range tk.Top(nil, 0) {
			want := truth[it.Key]
			if it.Count < want {
				t.Fatalf("seed %d: key %d undercounted: %d < %d", seed, it.Key, it.Count, want)
			}
			if it.Count-it.Err > want {
				t.Fatalf("seed %d: key %d lower bound broken: %d-%d > %d",
					seed, it.Key, it.Count, it.Err, want)
			}
		}
		bar := tk.Total() / uint64(k)
		for key, want := range truth {
			if want > bar && !tk.Contains(key) {
				t.Fatalf("seed %d: heavy key %d (truth %d > total/k %d) not tracked",
					seed, key, want, bar)
			}
		}
	}
}

func TestTopKHeapStaysConsistent(t *testing.T) {
	tk := NewTopK(32, testHash[int])
	rng := rand.New(rand.NewSource(3))
	for u := 0; u < 20000; u++ {
		tk.Update(rng.Intn(500), uint64(1+rng.Intn(50)))
		if u%1000 != 0 {
			continue
		}
		checkTopK(t, tk)
	}
}

func TestTopKLatencyAggregate(t *testing.T) {
	tk := NewTopK(8, testHash[string])
	tk.UpdateLat("akl→lon", 1, 120)
	tk.UpdateLat("akl→lon", 1, 80)
	tk.UpdateLat("akl→lon", 1, 100)
	top := tk.Top(nil, 1)
	lat := top[0].Lat
	if lat.Count != 3 || lat.Min != 80 || lat.Max != 120 || lat.Sum != 300 {
		t.Fatalf("aggregate = %+v", lat)
	}
}

func TestTopKSteadyStateNoAlloc(t *testing.T) {
	tk := NewTopK(64, testHash[uint64])
	for i := uint64(0); i < 64; i++ {
		tk.Update(i, i+1)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tk.Update(7, 3)          // tracked-key fast path
		tk.Update(1_000_000, 1)  // replace-min path
		tk.UpdateLat(8, 1, 42.0) // tracked with aggregate
	})
	if allocs != 0 {
		t.Fatalf("steady-state Update allocates %.1f/op", allocs)
	}
}

// TestTopKMatchesReference replays one random update stream into the
// indexed heap and into the map-based summary it replaced
// (topk_ref_test.go) and requires the same answers: Top item by item
// (count, error, latency aggregate, and the order of ties), Min, Total and
// Evictions. Increments of 1-3 over Zipf keys keep counts tied, so the
// choice of which tied minimum to evict is exercised on every seed. Every
// third seed indexes with a hash of 3 bits, so long probe runs and the
// backward-shift delete inside them are exercised too.
func TestTopKMatchesReference(t *testing.T) {
	const seeds = 300
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 8 + rng.Intn(40)
		hash := testHash[uint64]
		if seed%3 == 0 {
			hash = func(key uint64) uint64 { return key & 7 }
		}
		tk, ref := NewTopK(k, hash), newRefTopK[uint64](k)
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(k*(2+rng.Intn(6))))
		for u := 0; u < 2000; u++ {
			key, inc := zipf.Uint64(), uint64(1+rng.Intn(3))
			if rng.Intn(2) == 0 {
				tk.Update(key, inc)
				ref.Update(key, inc)
			} else {
				lat := float64(rng.Intn(500))
				tk.UpdateLat(key, inc, lat)
				ref.UpdateLat(key, inc, lat)
			}
		}
		checkTopK(t, tk)
		got, want := tk.Top(nil, 0), ref.Top(nil, 0)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d items, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: item %d = %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
		if tk.Min() != ref.Min() || tk.Total() != ref.Total() || tk.Evictions() != ref.Evictions() {
			t.Fatalf("seed %d: min/total/evictions %d/%d/%d, reference %d/%d/%d", seed,
				tk.Min(), tk.Total(), tk.Evictions(), ref.Min(), ref.Total(), ref.Evictions())
		}
	}
}

// TestTopKBytesCoversArrays: the budget charge is at least what the
// summary's backing arrays hold, so the tier's fixed + live <= BudgetBytes
// invariant is about real memory.
func TestTopKBytesCoversArrays(t *testing.T) {
	for _, k := range []int{8, 100, 256, 1000, 4096} {
		checkBytes(t, NewTopK(k, testHash[FlowID]))
		checkBytes(t, NewTopK(k, testHash[netip.Prefix]))
		checkBytes(t, NewTopK(k, testHash[string]))
	}
}

func checkBytes[K comparable](t *testing.T, tk *TopK[K]) {
	t.Helper()
	var it Item[K]
	held := int64(cap(tk.slots))*int64(unsafe.Sizeof(it)) +
		int64(cap(tk.heap))*int64(unsafe.Sizeof(heapEntry{})) +
		int64(cap(tk.pos))*int64(unsafe.Sizeof(tk.pos[0])) +
		int64(cap(tk.hashes))*int64(unsafe.Sizeof(tk.hashes[0])) +
		int64(cap(tk.index))*int64(unsafe.Sizeof(tk.index[0]))
	if tk.Bytes() < held {
		t.Fatalf("%T k=%d: Bytes() %d below the %d bytes its arrays hold", tk, tk.K(), tk.Bytes(), held)
	}
}
