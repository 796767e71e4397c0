package tsdb

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func TestRefValidation(t *testing.T) {
	db := Open(Options{})
	defer db.Close()

	if _, err := db.Ref("latency", nil); err != ErrNoFields {
		t.Fatalf("no fields: got %v, want ErrNoFields", err)
	}
	if _, err := db.Ref("latency", nil, "a", "b", "a"); err != ErrBadRef {
		t.Fatalf("dup fields: got %v, want ErrBadRef", err)
	}
	// Identifiers Snapshot could not write back as the one record Restore
	// reads (TestPersistUnrestorableIdentifierRefused).
	for _, c := range []struct {
		name  string
		tags  []Tag
		field string
	}{
		{"lat\nency", nil, "total_ms"},
		{"latency", []Tag{{Key: "src\ncity", Value: "x"}}, "total_ms"},
		{"latency", []Tag{{Key: "src_city", Value: "Auck\nland"}}, "total_ms"},
		{"latency", nil, "total\nms"},
		{"latency", []Tag{{Key: "", Value: "x"}}, "total_ms"}, // ",=x": ParseLine refuses it
		{"latency", nil, ""},
		{"", nil, "total_ms"},
		{"#latency", nil, "total_ms"}, // a comment to Restore: silently skipped
	} {
		if _, err := db.Ref(c.name, c.tags, c.field); err != ErrBadRef {
			t.Errorf("Ref(%q, %q, %q): got %v, want ErrBadRef", c.name, c.tags, c.field, err)
		}
	}

	tags := []Tag{{Key: "dst", Value: "x"}, {Key: "src", Value: "y"}}
	r1, err := db.Ref("latency", tags, "total_ms")
	if err != nil {
		t.Fatal(err)
	}
	// Same identity in different tag order → same handle.
	r2, err := db.Ref("latency", []Tag{tags[1], tags[0]}, "total_ms")
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("Ref not idempotent: %d vs %d", r1, r2)
	}
	// Different field set → different handle.
	r3, err := db.Ref("latency", tags, "total_ms", "internal_ms")
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Fatalf("distinct field sets share a handle")
	}

	if _, err := db.WriteBatchRef([]RefPoint{{Ref: 99, Time: 1, Vals: []float64{1}}}); err != ErrBadRef {
		t.Fatalf("unknown ref: got %v, want ErrBadRef", err)
	}
	if _, err := db.WriteBatchRef([]RefPoint{{Ref: r1, Time: 1, Vals: []float64{1, 2}}}); err != ErrBadRef {
		t.Fatalf("wrong Vals len: got %v, want ErrBadRef", err)
	}
	if n, err := db.WriteBatchRef(nil); n != 0 || err != nil {
		t.Fatalf("empty batch: got (%d, %v)", n, err)
	}
	if n, err := db.WriteBatchRef([]RefPoint{{Ref: r1, Time: 1, Vals: []float64{5}}}); n != 1 || err != nil {
		t.Fatalf("write: got (%d, %v)", n, err)
	}

	db.Close()
	if _, err := db.Ref("latency", tags, "total_ms"); err != ErrClosedDB {
		t.Fatalf("closed Ref: got %v, want ErrClosedDB", err)
	}
	if _, err := db.WriteBatchRef([]RefPoint{{Ref: r1, Time: 2, Vals: []float64{5}}}); err != ErrClosedDB {
		t.Fatalf("closed WriteBatchRef: got %v, want ErrClosedDB", err)
	}
}

// preGrowSeries re-backs a ref's live raw columns with large-capacity
// slices so a measured write loop never triggers slice growth — the test
// pins the write path's own allocations, not amortized storage growth.
func preGrowSeries(db *DB, ref SeriesRef, rows int) {
	rs := db.dir.Load().refs[ref]
	st := db.stripes[rs.ident.stripeIdx]
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, sr := range rs.ident.raw {
		sr.times = append(make([]int64, 0, rows), sr.times...)
		for ci := range sr.cols {
			sr.cols[ci] = append(make([]float64, 0, rows), sr.cols[ci]...)
		}
	}
}

// TestWriteBatchRefZeroAllocSteadyState pins the tentpole claim: once a
// ref's series, columns and tier buckets exist (and column capacity is
// pre-grown so slice growth is out of the picture), WriteBatchRef performs
// zero heap allocations per batch — rollup tiers included.
func TestWriteBatchRefZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	db := Open(Options{Rollups: []RollupTier{{Width: 1e9}, {Width: 10e9}}})
	defer db.Close()

	ref, err := db.Ref("latency",
		[]Tag{{Key: "src_city", Value: "Auckland"}, {Key: "dst_city", Value: "Los Angeles"}},
		"internal_ms", "external_ms", "total_ms")
	if err != nil {
		t.Fatal(err)
	}
	const batchLen = 64
	pts := make([]RefPoint, batchLen)
	vals := make([]float64, 3*batchLen)
	for i := range pts {
		v := vals[3*i : 3*i+3 : 3*i+3]
		v[0], v[1], v[2] = 1.5, 20.25, 21.75
		// Fixed timestamps inside one shard and one tier bucket: repeated
		// runs hit the hot caches, the point of a steady-state measurement.
		pts[i] = RefPoint{Ref: ref, Time: int64(i) * 1e6, Vals: v}
	}
	// Warm: create shard/series/columns/tier buckets.
	if n, err := db.WriteBatchRef(pts); n != batchLen || err != nil {
		t.Fatalf("warm write: (%d, %v)", n, err)
	}
	const runs = 100
	preGrowSeries(db, ref, (runs+8)*batchLen+batchLen)

	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := db.WriteBatchRef(pts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WriteBatchRef steady state allocated %.1f times per batch, want 0", allocs)
	}
}

// TestWriteBatchAllocBudget pins the string-keyed entry point's allocation
// budget: with warm scratch, an interned shape and sorted tags, WriteBatch
// itself allocates nothing per batch (slice growth excluded via pre-grow).
// It still pays a key build, a hash and one map probe per point — only a
// held SeriesRef skips those — but it must not regress to per-call
// key/scratch allocations.
func TestWriteBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	db := Open(Options{Rollups: []RollupTier{{Width: 1e9}, {Width: 10e9}}})
	defer db.Close()

	const batchLen = 64
	pts := make([]Point, batchLen)
	for i := range pts {
		pts[i] = Point{
			Name: "latency",
			Tags: []Tag{{Key: "src_city", Value: "Auckland"}, {Key: "dst_city", Value: "Los Angeles"}},
			Fields: []Field{
				{Key: "internal_ms", Value: 1.5},
				{Key: "external_ms", Value: 20.25},
				{Key: "total_ms", Value: 21.75},
			},
			Time: int64(i) * 1e6,
		}
	}
	if n, err := db.WriteBatch(pts); n != batchLen || err != nil {
		t.Fatalf("warm write: (%d, %v)", n, err)
	}
	ref, err := db.Ref("latency", pts[0].Tags, "internal_ms", "external_ms", "total_ms")
	if err != nil {
		t.Fatal(err)
	}
	const runs = 100
	preGrowSeries(db, ref, (runs+8)*batchLen+2*batchLen)

	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := db.WriteBatch(pts); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 1.0 // allocs per BATCH (not per point): sync.Pool may miss after a GC
	if allocs > budget {
		t.Fatalf("WriteBatch allocated %.1f times per batch, budget %.1f", allocs, budget)
	}
}

// resultsEqual compares query results treating NaN == NaN (empty buckets
// carry NaN value aggregates, which reflect.DeepEqual would reject).
func resultsEqual(a, b []SeriesResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Group != b[i].Group || a[i].Tier != b[i].Tier || len(a[i].Buckets) != len(b[i].Buckets) {
			return false
		}
		for j := range a[i].Buckets {
			ba, bb := a[i].Buckets[j], b[i].Buckets[j]
			if ba.Start != bb.Start || ba.Count != bb.Count || len(ba.Aggs) != len(bb.Aggs) {
				return false
			}
			for k, va := range ba.Aggs {
				vb, ok := bb.Aggs[k]
				if !ok {
					return false
				}
				// Bit-identical: NaN matches NaN, and -0 vs +0 would differ.
				if math.Float64bits(va) != math.Float64bits(vb) {
					return false
				}
			}
		}
	}
	return true
}

// refSeriesShape is one randomized series identity with a fixed field set.
type refSeriesShape struct {
	name   string
	tags   []Tag
	fields []string
	ref    SeriesRef
}

// writeShapesEverywhere writes identical random data into legacy (via the
// string-keyed WriteBatch) and refDB (via WriteBatchRef) and returns the
// shapes.
func writeShapesEverywhere(t *testing.T, rng *rand.Rand, legacy, refDB *DB, nPoints int) []refSeriesShape {
	t.Helper()
	cities := []string{"Auckland", "Wellington", "Sydney", "Tokyo"}
	allFields := []string{"internal_ms", "external_ms", "total_ms"}
	var shapes []refSeriesShape
	for _, src := range cities {
		for _, dst := range cities[:2] {
			fs := allFields[:1+rng.Intn(3)]
			sh := refSeriesShape{
				name: "latency",
				tags: []Tag{
					{Key: "src_city", Value: src},
					{Key: "dst_city", Value: dst},
				},
				fields: append([]string(nil), fs...),
			}
			ref, err := refDB.Ref(sh.name, sh.tags, sh.fields...)
			if err != nil {
				t.Fatal(err)
			}
			sh.ref = ref
			shapes = append(shapes, sh)
		}
	}

	var legacyBatch []Point
	var refBatch []RefPoint
	flush := func() {
		if len(legacyBatch) == 0 {
			return
		}
		if n, err := legacy.WriteBatch(legacyBatch); n != len(legacyBatch) || err != nil {
			t.Fatalf("legacy WriteBatch: (%d, %v)", n, err)
		}
		if n, err := refDB.WriteBatchRef(refBatch); n != len(refBatch) || err != nil {
			t.Fatalf("WriteBatchRef: (%d, %v)", n, err)
		}
		legacyBatch, refBatch = legacyBatch[:0], refBatch[:0]
	}
	for i := 0; i < nPoints; i++ {
		sh := shapes[rng.Intn(len(shapes))]
		tm := rng.Int63n(100e9)
		vals := make([]float64, len(sh.fields))
		var fields []Field
		for j, k := range sh.fields {
			v := float64(1 + rng.Intn(97)) // integer values: float sums exact under reordering
			if rng.Intn(10) == 0 {
				v = math.NaN() // absent field
			}
			vals[j] = v
			fields = append(fields, Field{Key: k, Value: v})
		}
		// Unsorted tags on the legacy side exercise sortTags.
		tags := []Tag{sh.tags[1], sh.tags[0]}
		legacyBatch = append(legacyBatch, Point{Name: sh.name, Tags: tags, Fields: fields, Time: tm})
		refBatch = append(refBatch, RefPoint{Ref: sh.ref, Time: tm, Vals: vals})
		if len(legacyBatch) == 37 || rng.Intn(50) == 0 {
			flush()
		}
	}
	flush()
	return shapes
}

// compareDBs asserts the DB written through Write/WriteBatch ("legacy", the
// name the suite has carried since there were two apply paths) and the one
// written through WriteBatchRef answer identically: write stats,
// series counts, tag values, raw-path and tier-served queries, grouped and
// filtered.
func compareDBs(t *testing.T, legacy, refDB *DB, field string) {
	t.Helper()
	lw, ld := legacy.WriteStats()
	rw, rd := refDB.WriteStats()
	if lw != rw || ld != rd {
		t.Fatalf("WriteStats differ: legacy (%d,%d) ref (%d,%d)", lw, ld, rw, rd)
	}
	if a, b := legacy.SeriesCount(), refDB.SeriesCount(); a != b {
		t.Fatalf("SeriesCount differ: %d vs %d", a, b)
	}
	for _, key := range []string{"src_city", "dst_city", "nope"} {
		a := legacy.TagValues(key, 0, 100e9)
		b := refDB.TagValues(key, 0, 100e9)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("TagValues(%q) differ: %v vs %v", key, a, b)
		}
	}
	queries := []Query{
		{Measurement: "latency", Field: field, Start: 0, End: 100e9,
			Aggs:       []AggKind{AggCount, AggMin, AggMax, AggSum, AggMean, AggMedian, AggP95, AggP99},
			Resolution: ResolutionRaw},
		{Measurement: "latency", Field: field, Start: 0, End: 100e9, Window: 10e9,
			GroupBy: "src_city", Aggs: []AggKind{AggCount, AggSum, AggMin, AggMax},
			Resolution: ResolutionRaw},
		{Measurement: "latency", Field: field, Start: 0, End: 100e9, Window: 10e9,
			Where: []Tag{{Key: "dst_city", Value: "Auckland"}}, GroupBy: "src_city",
			Aggs: []AggKind{AggCount, AggSum}},
		{Measurement: "latency", Field: field, Start: 0, End: 100e9, Window: 10e9,
			GroupBy: "src_city", Aggs: []AggKind{AggCount, AggSum, AggMin, AggMax, AggMean}},
	}
	for qi, q := range queries {
		a, errA := legacy.Execute(q)
		b, errB := refDB.Execute(q)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("query %d: errs %v vs %v", qi, errA, errB)
		}
		if !resultsEqual(a, b) {
			t.Fatalf("query %d results differ:\nlegacy: %+v\nref:    %+v", qi, a, b)
		}
	}
}

// TestRefLegacyEquivalenceRandomized drives identical randomized writes
// through the string-keyed and the interned-handle entry points and asserts
// bit-identical query results — raw and tier-served — plus identical stats
// and tag indexes: Write ≡ WriteBatchRef is an API property.
func TestRefLegacyEquivalenceRandomized(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(4000 + trial)))
		opts := Options{
			ShardDuration: 10e9,
			Stripes:       1 << uint(rng.Intn(4)),
			Rollups:       []RollupTier{{Width: 1e9}, {Width: 10e9}},
		}
		if trial%2 == 1 {
			opts.Retention = 50e9 // exercise retention drops + directory unpublish
		}
		legacy := Open(opts)
		refDB := Open(opts)
		writeShapesEverywhere(t, rng, legacy, refDB, 2000)
		for _, f := range []string{"internal_ms", "external_ms", "total_ms"} {
			compareDBs(t, legacy, refDB, f)
		}
		legacy.Close()
		refDB.Close()
	}
}

// TestRefMixedWithLegacyWrites interleaves ref writes with string-keyed
// writes that extend the same series with a new field, forcing the ref hot
// cache to re-resolve and pad foreign columns — and checks against a mirror
// fed the same sequence through Write alone.
func TestRefMixedWithLegacyWrites(t *testing.T) {
	opts := Options{ShardDuration: 10e9, Rollups: []RollupTier{{Width: 1e9}}}
	legacy := Open(opts)
	refDB := Open(opts)
	defer legacy.Close()
	defer refDB.Close()

	tags := []Tag{{Key: "src_city", Value: "Auckland"}, {Key: "dst_city", Value: "Sydney"}}
	ref, err := refDB.Ref("latency", tags, "total_ms")
	if err != nil {
		t.Fatal(err)
	}
	writeBoth := func(p Point) {
		q := p
		q.Tags = append([]Tag(nil), p.Tags...)
		q.Fields = append([]Field(nil), p.Fields...)
		if err := legacy.Write(&q); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		tm := int64(i) * 1e8
		if i%3 == 2 {
			// Legacy write extending the series with a second field.
			p := Point{Name: "latency", Tags: tags,
				Fields: []Field{{Key: "total_ms", Value: float64(i)}, {Key: "retrans", Value: float64(i % 3)}},
				Time:   tm}
			writeBoth(p)
			r := p
			r.Tags = append([]Tag(nil), tags...)
			r.Fields = append([]Field(nil), p.Fields...)
			if err := refDB.Write(&r); err != nil {
				t.Fatal(err)
			}
			continue
		}
		writeBoth(Point{Name: "latency", Tags: tags,
			Fields: []Field{{Key: "total_ms", Value: float64(i)}}, Time: tm})
		if n, err := refDB.WriteBatchRef([]RefPoint{{Ref: ref, Time: tm, Vals: []float64{float64(i)}}}); n != 1 || err != nil {
			t.Fatalf("WriteBatchRef: (%d, %v)", n, err)
		}
	}
	for _, f := range []string{"total_ms", "retrans"} {
		compareDBs(t, legacy, refDB, f)
	}
}

// TestRefWALCrashRestoreEquivalence writes through the ref path into a
// persistent DB, simulates a crash, reopens, and asserts the recovered
// state answers identically to an in-memory DB fed the same data through
// WriteBatch — the WAL's self-describing record format makes the entry
// point invisible to durability.
func TestRefWALCrashRestoreEquivalence(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		ShardDuration: 10e9,
		Rollups:       []RollupTier{{Width: 1e9}, {Width: 10e9}},
		// FsyncAlways: every acked batch survives the simulated crash, so
		// recovered state must equal the mirror exactly.
		Persist: persistOpts(dir, FsyncAlways),
	}
	db, err := OpenDB(opts)
	if err != nil {
		t.Fatal(err)
	}
	memOpts := opts
	memOpts.Persist = nil
	mirror := Open(memOpts)
	defer mirror.Close()

	rng := rand.New(rand.NewSource(99))
	writeShapesEverywhere(t, rng, mirror, db, 1200)
	crashDB(db)

	db2, err := OpenDB(opts)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db2.Close()
	for _, key := range []string{"src_city", "dst_city"} {
		a := mirror.TagValues(key, 0, 100e9)
		b := db2.TagValues(key, 0, 100e9)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("TagValues(%q) differ after crash restore: %v vs %v", key, a, b)
		}
	}
	for _, f := range []string{"internal_ms", "external_ms", "total_ms"} {
		for _, resolution := range []int64{ResolutionRaw, ResolutionAuto} {
			q := Query{Measurement: "latency", Field: f, Start: 0, End: 100e9, Window: 10e9,
				GroupBy: "src_city", Resolution: resolution,
				Aggs: []AggKind{AggCount, AggMin, AggMax, AggSum, AggMean}}
			a, errA := mirror.Execute(q)
			b, errB := db2.Execute(q)
			if errA != nil || errB != nil {
				t.Fatalf("Execute: %v / %v", errA, errB)
			}
			if !resultsEqual(a, b) {
				t.Fatalf("field %s resolution %d differs after crash restore:\nmirror: %+v\nrestored: %+v",
					f, resolution, a, b)
			}
		}
	}
}

// checkAligned asserts the storage invariant a duplicate field key used to
// break: every column of every series holds exactly one value per
// timestamp.
func checkAligned(t *testing.T, db *DB) {
	t.Helper()
	for _, st := range db.stripes {
		st.mu.RLock()
		for _, id := range st.idents {
			for _, sr := range id.raw {
				for ci, col := range sr.cols {
					if len(col) != len(sr.times) {
						t.Errorf("series %s column %s: %d values for %d timestamps",
							id.key, sr.fkeys[ci], len(col), len(sr.times))
					}
				}
			}
		}
		st.mu.RUnlock()
	}
}

// TestDuplicateFieldKeysRejected pins the fix for the corruption the
// string-keyed apply path allowed: "m,a=b x=1,x=2 100" appended two values
// to column x for one timestamp, so every later point of the series was
// read one row off (count 2, mean 1.5 after a following x=3). Duplicate
// keys are now refused at every entry point, before anything is written.
func TestDuplicateFieldKeysRejected(t *testing.T) {
	db := Open(Options{Rollups: []RollupTier{{Width: 1e9}}})
	defer db.Close()
	if err := db.WriteLine("m,a=b x=1,x=2 100"); err != ErrBadLine {
		t.Fatalf("WriteLine duplicate field: got %v, want ErrBadLine", err)
	}
	mk := func(tm int64, fields ...Field) Point {
		return Point{Name: "m", Tags: []Tag{{Key: "a", Value: "b"}}, Fields: fields, Time: tm}
	}
	dup := mk(100, Field{Key: "x", Value: 1}, Field{Key: "y", Value: 5}, Field{Key: "x", Value: 2})
	if err := db.Write(&dup); err != ErrBadRef {
		t.Fatalf("Write duplicate field: got %v, want ErrBadRef", err)
	}
	// Fail-before-write: the good point ahead of the bad one is not stored.
	if n, err := db.WriteBatch([]Point{mk(150, Field{Key: "x", Value: 9}), dup}); n != 0 || err != ErrBadRef {
		t.Fatalf("WriteBatch duplicate field: got (%d, %v), want (0, ErrBadRef)", n, err)
	}
	if w, _ := db.WriteStats(); w != 0 {
		t.Fatalf("%d points written by rejected calls", w)
	}
	if err := db.WriteLine("m,a=b x=3 200"); err != nil {
		t.Fatal(err)
	}
	checkAligned(t, db)
	for _, resolution := range []int64{ResolutionRaw, ResolutionAuto} {
		res, err := db.Execute(Query{Measurement: "m", Field: "x", Start: 0, End: 1e9,
			Resolution: resolution, Aggs: []AggKind{AggCount, AggMean}})
		if err != nil || len(res) != 1 {
			t.Fatalf("Execute: %+v, %v", res, err)
		}
		if b := res[0].Buckets[0]; b.Count != 1 || b.Aggs[AggMean] != 3 {
			t.Fatalf("resolution %d: count %d mean %v, want 1 and 3", resolution, b.Count, b.Aggs[AggMean])
		}
	}
}

// TestWriteRefEquivalenceSharedSeries is the equivalence suite for what
// only shape resolution can get wrong: several shapes on ONE series — the
// same fields in permuted order, subsets and a disjoint extra field (the
// mixed NaN padding) — written at random times across ten shards so every
// ref's single-slot hot cache keeps being evicted, through Write, WriteBatch
// and WriteBatchRef alike.
func TestWriteRefEquivalenceSharedSeries(t *testing.T) {
	fieldSets := [][]string{
		{"internal_ms", "total_ms"},
		{"total_ms", "internal_ms"},
		{"total_ms"},
		{"total_ms", "external_ms"},
		{"external_ms", "internal_ms", "total_ms"},
	}
	cities := []string{"Auckland", "Sydney", "Tokyo"}
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		opts := Options{
			ShardDuration: 10e9,
			Stripes:       1 << uint(rng.Intn(4)),
			Rollups:       []RollupTier{{Width: 1e9}, {Width: 10e9}},
		}
		if trial%2 == 1 {
			opts.Retention = 50e9
		}
		strDB, refDB := Open(opts), Open(opts)
		refs := make([][]SeriesRef, len(cities))
		tagsOf := func(ci int) []Tag {
			return []Tag{{Key: "src_city", Value: cities[ci]}, {Key: "dst_city", Value: "Auckland"}}
		}
		for ci := range cities {
			for _, fs := range fieldSets {
				r, err := refDB.Ref("latency", tagsOf(ci), fs...)
				if err != nil {
					t.Fatal(err)
				}
				refs[ci] = append(refs[ci], r)
			}
		}
		var strBatch []Point
		var refBatch []RefPoint
		flush := func() {
			if len(strBatch) == 1 {
				if err := strDB.Write(&strBatch[0]); err != nil {
					t.Fatal(err)
				}
			} else if n, err := strDB.WriteBatch(strBatch); n != len(strBatch) || err != nil {
				t.Fatalf("WriteBatch: (%d, %v)", n, err)
			}
			if n, err := refDB.WriteBatchRef(refBatch); n != len(refBatch) || err != nil {
				t.Fatalf("WriteBatchRef: (%d, %v)", n, err)
			}
			strBatch, refBatch = strBatch[:0], refBatch[:0]
		}
		for i := 0; i < 3000; i++ {
			ci, si := rng.Intn(len(cities)), rng.Intn(len(fieldSets))
			tm := rng.Int63n(100e9)
			vals := make([]float64, len(fieldSets[si]))
			fields := make([]Field, len(vals))
			for j, k := range fieldSets[si] {
				vals[j] = float64(1 + rng.Intn(97)) // integers: sums exact under reordering
				if rng.Intn(10) == 0 {
					vals[j] = math.NaN()
				}
				fields[j] = Field{Key: k, Value: vals[j]}
			}
			tags := tagsOf(ci)
			strBatch = append(strBatch, Point{Name: "latency", Tags: []Tag{tags[1], tags[0]}, Fields: fields, Time: tm})
			refBatch = append(refBatch, RefPoint{Ref: refs[ci][si], Time: tm, Vals: vals})
			if len(strBatch) == 29 || rng.Intn(8) == 0 {
				flush()
			}
		}
		if len(strBatch) > 0 {
			flush()
		}
		for _, f := range []string{"internal_ms", "external_ms", "total_ms"} {
			compareDBs(t, strDB, refDB, f)
		}
		checkAligned(t, strDB)
		checkAligned(t, refDB)
		// Write interned exactly the shapes it saw — one refState each — and
		// Ref on the same shape hands that one out instead of adding another.
		seen := len(strDB.dir.Load().refs)
		if seen == 0 || seen > len(cities)*len(fieldSets) {
			t.Fatalf("trial %d: Write interned %d shapes, want 1..%d", trial, seen, len(cities)*len(fieldSets))
		}
		for ci := range cities {
			for _, fs := range fieldSets {
				if _, err := strDB.Ref("latency", tagsOf(ci), fs...); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n := len(strDB.dir.Load().refs); n != len(cities)*len(fieldSets) {
			t.Fatalf("trial %d: %d refStates after Ref on every shape, want %d", trial, n, len(cities)*len(fieldSets))
		}
		strDB.Close()
		refDB.Close()
	}
}

// TestWriteInternsOneRefPerShape pins resolution's identity contract: a
// shape first seen by Write and then asked for through Ref is one refState
// with one handle, and a batch whose first point creates a shape resolves
// its later points to that same state.
func TestWriteInternsOneRefPerShape(t *testing.T) {
	db := Open(Options{Rollups: []RollupTier{{Width: 1e9}}})
	defer db.Close()
	tags := func() []Tag { return []Tag{{Key: "src", Value: "y"}, {Key: "dst", Value: "x"}} }
	mk := func(tm int64) Point {
		return Point{Name: "latency", Tags: tags(), Time: tm,
			Fields: []Field{{Key: "total_ms", Value: float64(tm)}, {Key: "internal_ms", Value: 1}}}
	}
	if n, err := db.WriteBatch([]Point{mk(1), mk(2), mk(3)}); n != 3 || err != nil {
		t.Fatalf("WriteBatch: (%d, %v)", n, err)
	}
	if n := len(db.dir.Load().refs); n != 1 {
		t.Fatalf("one shape interned %d refStates", n)
	}
	ref, err := db.Ref("latency", tags(), "total_ms", "internal_ms")
	if err != nil {
		t.Fatal(err)
	}
	if ref != 0 || len(db.dir.Load().refs) != 1 {
		t.Fatalf("Ref after Write: handle %d, %d refStates; want the handle Write created", ref, len(db.dir.Load().refs))
	}
	if n, err := db.WriteBatchRef([]RefPoint{{Ref: ref, Time: 4, Vals: []float64{4, 1}}}); n != 1 || err != nil {
		t.Fatalf("WriteBatchRef: (%d, %v)", n, err)
	}
	p := mk(5)
	if err := db.Write(&p); err != nil {
		t.Fatal(err)
	}
	// The same fields in another order are another shape of the same series.
	other, err := db.Ref("latency", tags(), "internal_ms", "total_ms")
	if err != nil || other == ref {
		t.Fatalf("permuted field order: handle %d (%v), want a new one", other, err)
	}
	if db.SeriesCount() != 1 {
		t.Fatalf("%d series, want 1", db.SeriesCount())
	}
	checkAligned(t, db)
	res, err := db.Execute(Query{Measurement: "latency", Field: "total_ms", Start: 0, End: 10,
		Aggs: []AggKind{AggCount, AggSum}})
	if err != nil || len(res) != 1 || res[0].Buckets[0].Count != 5 || res[0].Buckets[0].Aggs[AggSum] != 15 {
		t.Fatalf("Execute: %+v, %v", res, err)
	}
}

// TestConcurrentWritesCreateOneSeries races four string-keyed writers (the
// pipeline's four queue workers) creating the same brand-new series: the
// shape must be interned once and no point lost. Run under -race.
func TestConcurrentWritesCreateOneSeries(t *testing.T) {
	db := Open(Options{Rollups: []RollupTier{{Width: 1e9}}})
	defer db.Close()
	const writers, perWriter = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				p := Point{Name: "rtt_stream",
					Tags:   []Tag{{Key: "peer_city", Value: "Tokyo"}, {Key: "echoer_city", Value: "Sydney"}, {Key: "mode", Value: "ts"}},
					Fields: []Field{{Key: "rtt_ms", Value: 1}},
					Time:   int64(w*perWriter + i)}
				var err error
				if i%2 == 0 {
					err = db.Write(&p)
				} else {
					_, err = db.WriteBatch([]Point{p})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := len(db.dir.Load().refs); n != 1 {
		t.Fatalf("%d refStates for one shape", n)
	}
	if db.SeriesCount() != 1 {
		t.Fatalf("%d series, want 1", db.SeriesCount())
	}
	checkAligned(t, db)
	res, err := db.Execute(Query{Measurement: "rtt_stream", Field: "rtt_ms", Start: 0, End: writers * perWriter,
		Resolution: ResolutionRaw, Aggs: []AggKind{AggCount}})
	if err != nil || len(res) != 1 || res[0].Buckets[0].Count != writers*perWriter {
		t.Fatalf("Execute: %+v, %v", res, err)
	}
}
