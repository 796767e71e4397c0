package tsdb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// qcacheOptions is the standard cache-enabled configuration under test:
// short shards so retention tests cycle several, a two-tier ladder, and a
// comfortable byte budget.
func qcacheOptions() Options {
	return Options{
		ShardDuration: 10e9,
		Rollups:       []RollupTier{{Width: 1e9}, {Width: 10e9}},
		QueryCache:    1 << 20,
	}
}

// requireSameResults asserts bit-exact equality between two Execute
// results: groups, serving tier, bucket starts/counts, and every aggregate
// compared by Float64bits (NaN-safe). Both results come from the same tier
// over the same data, so even quantile estimates must agree to the bit.
func requireSameResults(t testing.TB, label string, got, want []SeriesResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: group count %d != %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		if g.Group != w.Group || g.Tier != w.Tier {
			t.Fatalf("%s: series %d: (%q tier %d) != (%q tier %d)",
				label, i, g.Group, g.Tier, w.Group, w.Tier)
		}
		if len(g.Buckets) != len(w.Buckets) {
			t.Fatalf("%s: %q: bucket count %d != %d", label, g.Group, len(g.Buckets), len(w.Buckets))
		}
		for bi := range w.Buckets {
			gb, wb := &g.Buckets[bi], &w.Buckets[bi]
			if gb.Start != wb.Start || gb.Count != wb.Count {
				t.Fatalf("%s: %q bucket %d: (start %d count %d) != (start %d count %d)",
					label, g.Group, bi, gb.Start, gb.Count, wb.Start, wb.Count)
			}
			if len(gb.Aggs) != len(wb.Aggs) {
				t.Fatalf("%s: %q bucket %d: agg sets differ: %v vs %v",
					label, g.Group, bi, gb.Aggs, wb.Aggs)
			}
			for k, wv := range wb.Aggs {
				gv, ok := gb.Aggs[k]
				if !ok {
					t.Fatalf("%s: %q bucket %d: missing agg %s", label, g.Group, bi, k)
				}
				if math.Float64bits(gv) != math.Float64bits(wv) {
					t.Fatalf("%s: %q bucket %d agg %s: %v (%#x) != %v (%#x)",
						label, g.Group, bi, k, gv, math.Float64bits(gv), wv, math.Float64bits(wv))
				}
			}
		}
	}
}

// TestCachedExecuteEquivalenceRandomized is the dual-DB discipline from the
// ref-vs-legacy suite applied to the read path: an identical random
// interleaving of in-order writes, backfills and retention-horizon
// movement is applied to a cached and an uncached DB, and every query —
// repeated shapes with advancing windows, so hits, partial refreshes and
// invalidations all occur — must return bit-identical results from both.
func TestCachedExecuteEquivalenceRandomized(t *testing.T) {
	type shape struct {
		window  int64
		groupBy string
		where   []Tag
		aggs    []AggKind
		res     int64
	}
	shapes := []shape{
		{window: 2e9, groupBy: "src_city", aggs: []AggKind{AggMean}},
		{window: 10e9, groupBy: "src_city", aggs: []AggKind{AggCount, AggSum, AggMin, AggMax, AggMean}},
		{window: 10e9, groupBy: "", aggs: []AggKind{AggP95, AggMedian, AggCount}},
		// Duplicate + unsorted aggs exercise key canonicalization.
		{window: 2e9, groupBy: "dst_city", aggs: []AggKind{AggSum, AggCount, AggSum}},
		{window: 10e9, where: []Tag{{"src_city", "akl"}}, aggs: []AggKind{AggMean, AggMax}},
		// Raw-forced queries bypass the cache but must stay correct too.
		{window: 10e9, groupBy: "src_city", aggs: []AggKind{AggMean}, res: ResolutionRaw},
	}
	srcs := []string{"akl", "syd", "lax", "lhr"}
	dsts := []string{"lax", "lhr"}

	for _, withRetention := range []bool{false, true} {
		for seed := int64(0); seed < 4; seed++ {
			opts := qcacheOptions()
			if withRetention {
				opts.Retention = 50e9
				opts.Rollups = []RollupTier{
					{Width: 1e9, Retention: 100e9},
					{Width: 10e9, Retention: 200e9},
				}
			}
			uopts := opts
			uopts.QueryCache = 0
			cached := Open(opts)
			uncached := Open(uopts)

			rng := rand.New(rand.NewSource(900 + seed))
			now := int64(0)
			write := func(p *Point) {
				// Clone per DB: Write sorts tags in place.
				q := *p
				q.Tags = append([]Tag(nil), p.Tags...)
				if err := cached.Write(&q); err != nil {
					t.Fatal(err)
				}
				q = *p
				q.Tags = append([]Tag(nil), p.Tags...)
				if err := uncached.Write(&q); err != nil {
					t.Fatal(err)
				}
			}
			for step := 0; step < 400; step++ {
				switch r := rng.Intn(10); {
				case r < 6: // in-order-ish burst
					n := 1 + rng.Intn(6)
					for i := 0; i < n; i++ {
						write(pt("latency", now+rng.Int63n(2e9),
							map[string]string{"src_city": srcs[rng.Intn(len(srcs))], "dst_city": dsts[rng.Intn(len(dsts))]},
							map[string]float64{"total_ms": float64(100 + rng.Intn(300))}))
					}
					now += rng.Int63n(3e9)
				case r < 7: // backfill behind the frozen slack → invalidation
					old := now - qcacheSlack - rng.Int63n(30e9)
					write(pt("latency", old,
						map[string]string{"src_city": srcs[rng.Intn(len(srcs))], "dst_city": dsts[0]},
						map[string]float64{"total_ms": float64(50 + rng.Intn(100))}))
				default: // query a pooled shape over an advancing window
					s := shapes[rng.Intn(len(shapes))]
					end := floorDiv(now, s.window) * s.window
					if end <= 0 {
						continue
					}
					lookback := (3 + rng.Int63n(20)) * s.window
					start := end - lookback
					if start < 0 {
						start = 0
					}
					if rng.Intn(8) == 0 {
						start++ // misaligned: must bypass the cache, stay correct
					}
					if end <= start {
						continue
					}
					q := Query{
						Measurement: "latency", Field: "total_ms",
						Start: start, End: end, Window: s.window,
						GroupBy: s.groupBy, Where: s.where, Aggs: s.aggs,
						Resolution: s.res,
					}
					got, err := cached.Execute(q)
					if err != nil {
						t.Fatal(err)
					}
					want, err := uncached.Execute(q)
					if err != nil {
						t.Fatal(err)
					}
					requireSameResults(t,
						fmt.Sprintf("seed %d ret=%v step %d [%d,%d)w%d", seed, withRetention, step, start, end, s.window),
						got, want)
				}
			}
			st := cached.CacheStats()
			if st.Hits == 0 || st.Misses == 0 || st.PartialRefreshes == 0 {
				t.Fatalf("seed %d ret=%v: scenario did not exercise the cache: %+v", seed, withRetention, st)
			}
			if ust := uncached.CacheStats(); ust.Enabled {
				t.Fatalf("uncached DB reports an enabled cache: %+v", ust)
			}
		}
	}
}

// TestCacheTailRefreshDeterministic pins the incremental-refresh mechanics:
// a repeated advancing query re-aggregates only the tail, appends land in
// re-opened buckets, a backfill behind the slack invalidates via the
// generation, and a query reaching under a tier retention horizon bypasses
// the cache — all while staying equal to an uncached Execute.
func TestCacheTailRefreshDeterministic(t *testing.T) {
	opts := qcacheOptions()
	cached := Open(opts)
	uopts := opts
	uopts.QueryCache = 0
	uncached := Open(uopts)
	// Pin the slack so the frozen boundary is exact: with slack 5s and
	// maxT=99s the high-water mark for 10s windows is floor(94/10)*10 = 90s.
	cached.qcache.slack = 5e9

	write := func(tm int64, v float64) {
		for _, db := range []*DB{cached, uncached} {
			if err := db.Write(pt("latency", tm,
				map[string]string{"src_city": "akl"}, map[string]float64{"total_ms": v})); err != nil {
				t.Fatal(err)
			}
		}
	}
	exec := func(start, end int64) ([]SeriesResult, []SeriesResult) {
		q := Query{Measurement: "latency", Field: "total_ms",
			Start: start, End: end, Window: 10e9,
			Aggs: []AggKind{AggCount, AggSum, AggMean}}
		got, err := cached.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := uncached.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		return got, want
	}

	for i := int64(0); i < 100; i++ {
		write(i*1e9, float64(100+i))
	}
	got, want := exec(0, 100e9)
	requireSameResults(t, "fill", got, want)
	st := cached.CacheStats()
	if st.Hits != 0 || st.Misses != 1 || st.Bytes == 0 {
		t.Fatalf("after fill: %+v", st)
	}

	// Identical query again: frozen prefix [0,90s) serves, tail [90s,100s)
	// re-aggregates — a hit and a partial refresh.
	got, want = exec(0, 100e9)
	requireSameResults(t, "repeat", got, want)
	st = cached.CacheStats()
	if st.Hits != 1 || st.PartialRefreshes != 1 || st.Misses != 1 {
		t.Fatalf("after repeat: %+v", st)
	}

	// Append into the open tail bucket and beyond, then advance the window:
	// still a hit; only the tail past the high-water mark is recomputed.
	for i := int64(100); i < 120; i++ {
		write(i*1e9, float64(100+i))
	}
	got, want = exec(10e9, 120e9)
	requireSameResults(t, "advance", got, want)
	st = cached.CacheStats()
	if st.Hits != 2 || st.PartialRefreshes != 2 {
		t.Fatalf("after advance: %+v", st)
	}

	// A backfill far behind the slack bumps the generation: the next query
	// must refuse the (stale-capable) entry and refill.
	write(20e9, 9000)
	got, want = exec(10e9, 120e9)
	requireSameResults(t, "backfill", got, want)
	st = cached.CacheStats()
	if st.Misses != 2 {
		t.Fatalf("backfill did not invalidate: %+v", st)
	}
	// The refilled entry serves again and reflects the backfilled value.
	got, want = exec(10e9, 120e9)
	requireSameResults(t, "refill", got, want)
	if st = cached.CacheStats(); st.Hits != 3 {
		t.Fatalf("after refill: %+v", st)
	}
}

// TestCacheRetentionHorizonBypass covers invalidation by retention
// movement: once the serving tier's horizon passes a cached range's start,
// the cache refuses to serve it (frozen buckets may describe swept shards)
// and results still match an uncached DB that swept identically.
func TestCacheRetentionHorizonBypass(t *testing.T) {
	opts := Options{
		ShardDuration: 10e9,
		Retention:     50e9,
		// Both tiers outlive raw retention, so the planner serves queries
		// below the tier horizon too (tierCovers' "no worse than raw" rule)
		// — exactly the shape the cache must refuse.
		Rollups:    []RollupTier{{Width: 10e9, Retention: 100e9}},
		QueryCache: 1 << 20,
	}
	cached := Open(opts)
	uopts := opts
	uopts.QueryCache = 0
	uncached := Open(uopts)

	write := func(tm int64) {
		for _, db := range []*DB{cached, uncached} {
			if err := db.Write(pt("latency", tm,
				map[string]string{"src_city": "akl"}, map[string]float64{"total_ms": 100})); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := int64(0); i < 120; i++ {
		write(i * 1e9)
	}
	q := Query{Measurement: "latency", Field: "total_ms",
		Start: 0, End: 120e9, Window: 10e9, Aggs: []AggKind{AggCount, AggSum}}
	got, _ := cached.Execute(q)
	want, _ := uncached.Execute(q)
	requireSameResults(t, "pre-sweep", got, want)
	missesBefore := cached.CacheStats().Misses

	// Jump maxT so the tier horizon (maxT−100s) crosses the cached start;
	// the sweep drops tier shards on both DBs identically.
	write(160e9)
	got, err := cached.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err = uncached.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "post-sweep", got, want)
	st := cached.CacheStats()
	if st.Misses != missesBefore+1 {
		t.Fatalf("horizon query should count as a miss: before=%d after %+v", missesBefore, st)
	}
	if len(got) == 0 || got[0].Buckets[0].Count != 0 {
		t.Fatalf("swept leading bucket should be empty, got %+v", got[0].Buckets[0])
	}
}

// TestCacheEvictionUnderBudget forces byte-budget pressure with many
// distinct shapes and checks the LRU ledger: evictions occur, the
// accounted footprint never exceeds the budget, and every result (cached,
// evicted-and-refilled, or fresh) stays correct.
func TestCacheEvictionUnderBudget(t *testing.T) {
	opts := qcacheOptions()
	opts.QueryCache = 4096 // a handful of entries at most
	cached := Open(opts)
	uopts := opts
	uopts.QueryCache = 0
	uncached := Open(uopts)

	srcs := []string{"akl", "syd", "lax", "lhr", "nrt", "fra"}
	for i := int64(0); i < 200; i++ {
		p := pt("latency", i*1e9,
			map[string]string{"src_city": srcs[i%int64(len(srcs))]},
			map[string]float64{"total_ms": float64(100 + i)})
		for _, db := range []*DB{cached, uncached} {
			q := *p
			q.Tags = append([]Tag(nil), p.Tags...)
			if err := db.Write(&q); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < 3; round++ {
		for _, src := range srcs {
			for _, w := range []int64{1e9, 2e9, 10e9} {
				q := Query{Measurement: "latency", Field: "total_ms",
					Start: 0, End: 200e9, Window: w,
					Where: []Tag{{"src_city", src}},
					Aggs:  []AggKind{AggCount, AggSum, AggMean}}
				got, err := cached.Execute(q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := uncached.Execute(q)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResults(t, fmt.Sprintf("round %d %s w%d", round, src, w), got, want)
				if st := cached.CacheStats(); st.Bytes > opts.QueryCache {
					t.Fatalf("footprint %d exceeds budget %d", st.Bytes, opts.QueryCache)
				}
			}
		}
	}
	st := cached.CacheStats()
	if st.Evictions == 0 {
		t.Fatalf("expected byte-budget evictions, got %+v", st)
	}
}

// TestCacheConcurrentStress runs queries, advancing writes, backfills
// (generation bumps) and retention sweeps concurrently — primarily a -race
// exercise of the lookup/publish/evict paths; results are checked for
// well-formedness only (bucket layout), not cross-DB equality, since the
// interleaving is nondeterministic.
func TestCacheConcurrentStress(t *testing.T) {
	opts := qcacheOptions()
	opts.QueryCache = 1 << 14 // small: eviction races included
	opts.Rollups = []RollupTier{{Width: 1e9, Retention: 300e9}, {Width: 10e9}}
	opts.Retention = 200e9
	db := Open(opts)
	defer db.Close()

	const iters = 400
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			now := int64(0)
			for i := 0; i < iters; i++ {
				pts := make([]Point, 1+rng.Intn(4))
				for j := range pts {
					tm := now + rng.Int63n(2e9)
					if rng.Intn(10) == 0 {
						tm = now - qcacheSlack - rng.Int63n(50e9) // backfill
					}
					pts[j] = *pt("latency", tm,
						map[string]string{"src_city": []string{"akl", "syd", "lax"}[rng.Intn(3)]},
						map[string]float64{"total_ms": float64(100 + rng.Intn(200))})
				}
				if _, err := db.WriteBatch(pts); err != nil {
					t.Error(err)
					return
				}
				now += rng.Int63n(2e9)
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for i := 0; i < iters; i++ {
				w := []int64{1e9, 10e9}[rng.Intn(2)]
				end := (10 + rng.Int63n(400)) * w
				q := Query{Measurement: "latency", Field: "total_ms",
					Start: end - 10*w, End: end, Window: w,
					GroupBy: "src_city", Aggs: []AggKind{AggCount, AggMean, AggP95}}
				res, err := db.Execute(q)
				if err != nil {
					t.Error(err)
					return
				}
				for _, sr := range res {
					if len(sr.Buckets) != 10 {
						t.Errorf("query [%d,%d)w%d: got %d buckets", q.Start, q.End, w, len(sr.Buckets))
						return
					}
				}
				_ = db.CacheStats()
			}
		}(r)
	}
	wg.Wait()
}

// BenchmarkQueryCached is the acceptance benchmark: the live-dashboard
// shape — a 1h window at 10s buckets advancing by 10s per refresh over a
// 16-pair deployment with a 1s rollup ladder — served uncached (full tier
// re-aggregation every tick) versus through the cache (frozen prefix +
// one-bucket tail refresh). The cached path must come in ≥10× faster;
// equivalence is pinned by the tests above, speed by this benchmark.
func BenchmarkQueryCached(b *testing.B) {
	const (
		hour   = int64(3600e9)
		window = int64(10e9)
	)
	build := func(cacheBytes int64) *DB {
		db := Open(Options{
			Rollups:    []RollupTier{{Width: 1e9}},
			QueryCache: cacheBytes,
		})
		srcs := []string{"akl", "syd", "lax", "lhr"}
		dsts := []string{"nrt", "fra", "jfk", "sin"}
		pts := make([]Point, 0, 4096)
		flush := func() {
			if _, err := db.WriteBatch(pts); err != nil {
				b.Fatal(err)
			}
			pts = pts[:0]
		}
		for sec := int64(0); sec < 2*hour/1e9; sec++ {
			for si, src := range srcs {
				for di, dst := range dsts {
					pts = append(pts, *pt("latency", sec*1e9,
						map[string]string{"src_city": src, "dst_city": dst},
						map[string]float64{"total_ms": float64(100 + (sec+int64(si*4+di))%200)}))
				}
			}
			if len(pts) >= 4000 {
				flush()
			}
		}
		flush()
		return db
	}
	run := func(b *testing.B, db *DB) {
		q := Query{Measurement: "latency", Field: "total_ms",
			Window: window, GroupBy: "src_city",
			Aggs: []AggKind{AggCount, AggMean, AggP95}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := (int64(i) * window) % hour
			q.Start, q.End = off, off+hour
			res, err := db.Execute(q)
			if err != nil {
				b.Fatal(err)
			}
			if len(res) != 4 {
				b.Fatalf("groups: %d", len(res))
			}
		}
	}
	b.Run("uncached", func(b *testing.B) { run(b, build(0)) })
	b.Run("cached", func(b *testing.B) { run(b, build(16<<20)) })
}

// The kept walk's oracle: a query cache entry keeps its resolved tier walk
// and a refresh extends it instead of walking every series again, so every
// way the tier layout can change under a kept walk — a series born, a Ref
// written for the first time, a field new to a chunk, a chunk with no rows,
// a chunk in a later shard slot, a retention sweep — and every way the
// range can move is driven into a cached and an uncached DB alike, and
// each query must answer bit-identically from both.

// dualDB applies the same interned writes to a cached and an uncached DB.
type dualDB struct {
	tb               testing.TB
	cached, uncached *DB
	refs             [][2]SeriesRef // per Ref call: the handle in each DB
	nFields          []int
	queries          int
}

func newDualDB(tb testing.TB, opts Options) *dualDB {
	uopts := opts
	uopts.QueryCache = 0
	return &dualDB{tb: tb, cached: Open(opts), uncached: Open(uopts)}
}

// ref interns the shape in both DBs and returns its index for write.
func (d *dualDB) ref(src, dst string, fields ...string) int {
	d.tb.Helper()
	var r [2]SeriesRef
	for i, db := range []*DB{d.cached, d.uncached} {
		var err error
		r[i], err = db.Ref("latency", []Tag{{"src_city", src}, {"dst_city", dst}}, fields...)
		if err != nil {
			d.tb.Fatal(err)
		}
	}
	d.refs = append(d.refs, r)
	d.nFields = append(d.nFields, len(fields))
	return len(d.refs) - 1
}

// write stores one point of shape i in both DBs.
func (d *dualDB) write(i int, t int64, vals ...float64) {
	d.tb.Helper()
	for k, db := range []*DB{d.cached, d.uncached} {
		if _, err := db.WriteBatchRef([]RefPoint{{Ref: d.refs[i][k], Time: t, Vals: vals}}); err != nil {
			d.tb.Fatal(err)
		}
	}
}

// query runs q on both DBs and requires the same answer, or the same error.
func (d *dualDB) query(label string, q Query) {
	d.tb.Helper()
	d.queries++
	got, gerr := d.cached.Execute(q)
	want, werr := d.uncached.Execute(q)
	if gerr != nil || werr != nil {
		if !errors.Is(gerr, werr) {
			d.tb.Fatalf("%s: cached error %v, uncached %v", label, gerr, werr)
		}
		return
	}
	requireSameResults(d.tb, fmt.Sprintf("%s [%d,%d)", label, q.Start, q.End), got, want)
}

// dashQuery is the cached shape the scenarios refresh: 1 s windows by
// src_city, served from the 1 s tier of qcacheOptions.
func dashQuery(start, end int64, where ...Tag) Query {
	return Query{Measurement: "latency", Field: "total_ms", Start: start, End: end,
		Window: 1e9, GroupBy: "src_city", Where: where,
		Aggs: []AggKind{AggCount, AggMean, AggP95, AggMin}}
}

// TestCachedWalkScenarios drives each layout change a kept walk must
// notice, between refreshes of one cached shape, and requires every answer
// to equal the uncached DB's.
func TestCachedWalkScenarios(t *testing.T) {
	// With 10 s shards and a 30 s slack, [0, 40 s) keeps a frozen prefix
	// once the clock passes 40 s.
	const s = int64(1e9)
	fill := func(d *dualDB, a int, from, to int64) {
		for tm := from; tm < to; tm += s / 2 {
			d.write(a, tm, float64(100+tm/s))
		}
	}
	scenarios := []struct {
		name string
		run  func(d *dualDB)
	}{
		{"series born between hits", func(d *dualDB) {
			a := d.ref("akl", "lax", "total_ms")
			fill(d, a, 0, 75*s)
			d.query("miss", dashQuery(10*s, 80*s))
			d.query("hit", dashQuery(10*s, 80*s))
			b := d.ref("syd", "lax", "total_ms")
			d.write(b, 74*s, 7)
			d.write(b, 44*s+s/3, 9) // a backfill behind the slack: the entry goes, the walk stays
			d.query("born", dashQuery(10*s, 80*s))
			c := d.ref("lhr", "lax", "total_ms")
			d.write(c, 75*s, 3)
			d.query("born again", dashQuery(10*s, 80*s))
		}},
		{"ref queried before its first write", func(d *dualDB) {
			a := d.ref("akl", "lax", "total_ms")
			fill(d, a, 0, 75*s)
			d.query("miss", dashQuery(10*s, 80*s))
			b := d.ref("syd", "lax", "total_ms") // interned, nothing written
			c := d.ref("lhr", "lax", "total_ms")
			d.write(c, 74*s, 5) // born after b, written first
			d.query("b unwritten", dashQuery(10*s, 80*s))
			d.write(b, 71*s, 11) // b's first chunk: its list was nil
			d.write(b, 75*s, 12)
			d.query("b written", dashQuery(10*s, 80*s))
			d.query("b written, hit", dashQuery(10*s, 80*s))
		}},
		{"field added by a second field set", func(d *dualDB) {
			a := d.ref("akl", "lax", "total_ms")
			fill(d, a, 0, 75*s)
			other := d.ref("syd", "lax", "other_ms")
			d.write(other, 72*s, 1)
			d.query("miss", dashQuery(10*s, 80*s))
			both := d.ref("syd", "lax", "other_ms", "total_ms")
			d.write(both, 73*s, 2, 20) // total_ms joins syd's existing chunk
			d.query("key added", dashQuery(10*s, 80*s))
		}},
		{"all-NaN points make a chunk with no rows", func(d *dualDB) {
			a := d.ref("akl", "lax", "total_ms")
			fill(d, a, 0, 75*s)
			b := d.ref("syd", "lax", "total_ms")
			d.write(b, 71*s, math.NaN())
			d.query("empty chunk", dashQuery(10*s, 80*s))
			d.write(b, 74*s, 40)
			d.query("first value", dashQuery(10*s, 80*s))
		}},
		{"points past End in a later shard slot", func(d *dualDB) {
			a := d.ref("akl", "lax", "total_ms")
			b := d.ref("syd", "lax", "total_ms")
			fill(d, a, 0, 75*s)
			d.write(b, 74*s, 1)
			d.query("miss", dashQuery(10*s, 80*s))
			d.write(b, 95*s, 2) // syd's next slot, past End
			d.write(a, 85*s, 3)
			d.query("future chunk", dashQuery(10*s, 80*s))
			d.query("reaches it", dashQuery(20*s, 100*s))
		}},
		{"Start crosses a shard slot", func(d *dualDB) {
			a := d.ref("akl", "lax", "total_ms")
			b := d.ref("syd", "lax", "total_ms")
			fill(d, a, 0, 95*s)
			d.write(b, 15*s, 1) // syd holds only slot [10 s, 20 s)
			for start := int64(5); start <= 25; start += 5 {
				d.query(fmt.Sprintf("start %ds", start), dashQuery(start*s, 100*s))
			}
		}},
		{"End moves back", func(d *dualDB) {
			a := d.ref("akl", "lax", "total_ms")
			b := d.ref("syd", "lax", "total_ms")
			fill(d, a, 0, 95*s)
			d.write(b, 92*s, 1)
			d.query("miss", dashQuery(30*s, 100*s))
			d.query("end back", dashQuery(30*s, 90*s))
			d.query("end back more", dashQuery(30*s, 60*s))
			d.query("start back", dashQuery(10*s, 60*s))
			d.query("forward", dashQuery(30*s, 100*s))
		}},
		{"Where matches newborn series", func(d *dualDB) {
			a := d.ref("akl", "lax", "total_ms")
			fill(d, a, 0, 75*s)
			akl := Tag{"src_city", "akl"}
			d.query("miss", dashQuery(10*s, 80*s, akl))
			b := d.ref("akl", "lhr", "total_ms")
			c := d.ref("syd", "lhr", "total_ms")
			d.write(b, 74*s, 5)
			d.write(c, 74*s, 6)
			d.query("newborn", dashQuery(10*s, 80*s, akl))
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			d := newDualDB(t, qcacheOptions())
			sc.run(d)
			if st := d.cached.CacheStats(); st.Hits == 0 {
				t.Fatalf("no query hit a cached entry: %+v", st)
			}
		})
	}

	// A tier retention sweep drops chunks a kept walk lists: the stripes
	// it touched are walked again, and a series the sweep emptied is
	// written again later.
	t.Run("tier retention sweep", func(t *testing.T) {
		opts := qcacheOptions()
		opts.Rollups = []RollupTier{{Width: 1e9, Retention: 60e9}, {Width: 10e9}}
		d := newDualDB(t, opts)
		a := d.ref("akl", "lax", "total_ms")
		b := d.ref("syd", "lax", "total_ms")
		d.write(b, 5*s, 1)
		for tm := int64(0); tm < 150*s; tm += 5 * s {
			d.write(a, tm, float64(tm/s))
			if tm%(20*s) == 0 {
				d.query(fmt.Sprintf("at %ds", tm/s), dashQuery(max(0, tm-50*s)/(10*s)*(10*s), (tm/(10*s)+1)*(10*s)))
			}
		}
		d.write(b, 149*s, 2) // syd's list was emptied by the sweep
		d.query("after", dashQuery(100*s, 150*s))
		d.query("after, hit", dashQuery(100*s, 150*s))
		if st := d.cached.CacheStats(); st.Rewalks == 0 {
			t.Fatalf("no sweep made a kept walk walk again: %+v", st)
		}
	})
}

// walkOps interprets data as a sequence of operations on a dual DB: writes
// in order, backfills, births, Refs without a write, second field sets,
// all-NaN points, points in a later shard slot, and queries over ranges
// that advance, move back and cross shard slots.
func walkOps(tb testing.TB, data []byte) *dualDB {
	opts := qcacheOptions()
	if len(data) > 0 && data[0]&1 == 1 {
		opts.Retention = 50e9
		opts.Rollups = []RollupTier{{Width: 1e9, Retention: 100e9}, {Width: 10e9, Retention: 200e9}}
	}
	d := newDualDB(tb, opts)
	srcs := []string{"akl", "syd", "lax", "lhr"}
	dsts := []string{"nrt", "fra"}
	fieldSets := [][]string{{"total_ms"}, {"other_ms"}, {"other_ms", "total_ms"}}
	shapes := []Query{
		dashQuery(0, 0),
		{Measurement: "latency", Field: "total_ms", Window: 10e9, GroupBy: "dst_city", Aggs: []AggKind{AggSum, AggMax}},
		{Measurement: "latency", Field: "total_ms", Window: 2e9, Where: []Tag{{"src_city", "akl"}}, Aggs: []AggKind{AggMean, AggMedian}},
	}
	now := int64(0)
	var written []int // shapes with at least one write
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	vals := func(i int, v float64) []float64 {
		out := make([]float64, d.nFields[i])
		for k := range out {
			out[k] = v + float64(k)
		}
		return out
	}
	for len(data) > 0 && d.queries < 200 {
		op, arg := next(), next()
		switch op % 8 {
		case 0, 1: // an in-order write to a written shape
			if len(written) == 0 {
				continue
			}
			i := written[int(arg)%len(written)]
			now += int64(arg%4) * 1e9 / 2
			d.write(i, now, vals(i, float64(arg))...)
		case 2: // a backfill behind the frozen slack
			if len(written) == 0 {
				continue
			}
			i := written[int(arg)%len(written)]
			d.write(i, now-qcacheSlack-int64(arg%40)*1e9, vals(i, 1)...)
		case 3, 4: // a shape born (or found again) and written
			i := d.ref(srcs[arg%4], dsts[arg/4%2], fieldSets[int(arg/8)%3]...)
			if op%8 == 3 {
				d.write(i, now, vals(i, float64(arg))...)
				written = append(written, i)
			} // 4: interned and left unwritten for now
		case 5: // an all-NaN point
			if len(d.refs) == 0 {
				continue
			}
			i := int(arg) % len(d.refs)
			d.write(i, now, vals(i, math.NaN())...)
			written = append(written, i)
		case 6: // a point in a later shard slot
			if len(written) == 0 {
				continue
			}
			i := written[int(arg)%len(written)]
			d.write(i, now+int64(1+arg%2)*opts.ShardDuration, vals(i, 2)...)
		case 7: // a query
			q := shapes[int(arg)%len(shapes)]
			end := floorDiv(now, q.Window)*q.Window + int64(int(next()%5)-3)*q.Window
			q.Start = end - int64(3+next()%40)*q.Window
			q.End = end
			if q.Start < 0 || q.End <= q.Start {
				continue
			}
			d.query(fmt.Sprintf("op %d", d.queries), q)
		}
	}
	return d
}

// TestCachedWalkRandomized runs seeded random op sequences through walkOps.
func TestCachedWalkRandomized(t *testing.T) {
	hits := uint64(0)
	for seed := int64(0); seed < 16; seed++ {
		data := make([]byte, 3000)
		rand.New(rand.NewSource(seed)).Read(data)
		d := walkOps(t, data)
		hits += d.cached.CacheStats().Hits
	}
	if hits == 0 {
		t.Fatal("no query hit a cached entry")
	}
}

// FuzzCachedExecute decodes an op sequence (write, backfill, birth, Ref
// without a write, all-NaN point, later-slot point, query shape and range)
// and runs it against a cached and an uncached DB, requiring identical
// answers.
func FuzzCachedExecute(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		data := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Add([]byte{0, 3, 0, 4, 1, 0, 0, 7, 0, 3, 3, 0, 1, 3, 1, 7, 0, 3, 3, 7, 0, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		walkOps(t, data)
	})
}

// TestCachedWalkCharged pins the walk's charge: a walk that grows in place
// is re-priced by the serve that grew it, the two charges stay within the
// budget, and a walk that no longer fits beside its buckets is dropped
// while the answers stay exact.
func TestCachedWalkCharged(t *testing.T) {
	const s = int64(1e9)
	for _, budget := range []int64{1 << 20, 24 << 10} {
		opts := qcacheOptions()
		opts.QueryCache = budget
		d := newDualDB(t, opts)
		a := d.ref("akl", "lax", "total_ms")
		for tm := int64(0); tm < 75*s; tm += s {
			d.write(a, tm, float64(tm/s))
		}
		d.query("miss", dashQuery(10*s, 80*s))
		before := d.cached.CacheStats()
		for i := 0; i < 400; i++ {
			b := d.ref(fmt.Sprintf("c%d", i%40), fmt.Sprintf("d%d", i), "total_ms")
			d.write(b, 74*s, float64(i))
		}
		d.query("grown", dashQuery(10*s, 80*s))
		st := d.cached.CacheStats()
		if st.Bytes+st.WalkBytes > budget {
			t.Fatalf("budget %d: charged %d + %d", budget, st.Bytes, st.WalkBytes)
		}
		if budget == 1<<20 && st.WalkBytes < before.WalkBytes+400*walkRefBytes {
			t.Fatalf("grown walk charged %d, was %d before 400 series", st.WalkBytes, before.WalkBytes)
		}
		if budget < 1<<20 && (before.WalkBytes == 0 || st.WalkBytes != 0) {
			t.Fatalf("budget %d: walk charged %d then %d, want kept then dropped", budget, before.WalkBytes, st.WalkBytes)
		}
		d.query("after", dashQuery(10*s, 80*s))
	}
}
