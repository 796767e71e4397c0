package tsdb

import (
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func pt(name string, time int64, tags map[string]string, fields map[string]float64) *Point {
	p := &Point{Name: name, Time: time}
	for k, v := range tags {
		p.Tags = append(p.Tags, Tag{k, v})
	}
	for k, v := range fields {
		p.Fields = append(p.Fields, Field{k, v})
	}
	return p
}

func TestLineProtocolRoundTrip(t *testing.T) {
	p := &Point{
		Name:   "latency",
		Tags:   []Tag{{"dst_city", "Los Angeles"}, {"src_city", "Auckland"}},
		Fields: []Field{{"total_ms", 145.25}, {"internal_ms", 15.5}},
		Time:   1700000000123456789,
	}
	line := string(MarshalLine(nil, p))
	var got Point
	if err := ParseLine(line, &got); err != nil {
		t.Fatalf("%v (line %q)", err, line)
	}
	if got.Name != p.Name || got.Time != p.Time {
		t.Fatalf("got %+v", got)
	}
	if !reflect.DeepEqual(got.Tags, p.Tags) {
		t.Fatalf("tags: %+v", got.Tags)
	}
	if !reflect.DeepEqual(got.Fields, p.Fields) {
		t.Fatalf("fields: %+v", got.Fields)
	}
}

func TestLineProtocolEscaping(t *testing.T) {
	p := &Point{
		Name:   "my measure,ment",
		Tags:   []Tag{{"ke y", "va=lue,x"}},
		Fields: []Field{{"f 1", 2}},
		Time:   42,
	}
	line := string(MarshalLine(nil, p))
	var got Point
	if err := ParseLine(line, &got); err != nil {
		t.Fatalf("%v (line %q)", err, line)
	}
	if got.Name != p.Name || got.Tags[0] != p.Tags[0] || got.Fields[0] != p.Fields[0] {
		t.Fatalf("escaping lost data: %+v (line %q)", got, line)
	}
}

func TestParseLineInfluxExamples(t *testing.T) {
	var p Point
	// Canonical Influx docs example adapted to float/int/bool fields.
	if err := ParseLine(`weather,location=us-midwest temperature=82 1465839830100400200`, &p); err != nil {
		t.Fatal(err)
	}
	if p.Name != "weather" || p.Tags[0] != (Tag{"location", "us-midwest"}) ||
		p.Fields[0] != (Field{"temperature", 82}) || p.Time != 1465839830100400200 {
		t.Fatalf("%+v", p)
	}
	if err := ParseLine(`m f=10i 1`, &p); err != nil || p.Fields[0].Value != 10 {
		t.Fatalf("int field: %v %+v", err, p)
	}
	if err := ParseLine(`m f=true 1`, &p); err != nil || p.Fields[0].Value != 1 {
		t.Fatalf("bool field: %v %+v", err, p)
	}
	if err := ParseLine(`m,a=1,b=2 f=1,g=2`, &p); err != nil || p.Time != 0 || len(p.Tags) != 2 || len(p.Fields) != 2 {
		t.Fatalf("no-timestamp: %v %+v", err, p)
	}
}

func TestParseLineRejectsGarbage(t *testing.T) {
	var p Point
	for _, line := range []string{
		"", "nofields", "m ", "m =1", "m f=", "m f=abc", `m f="str"`,
		"m,tag f=1 notanumber", `m,=v f=1`, "m f=1 1 trailing",
		"m\\", // dangling escape
	} {
		if err := ParseLine(line, &p); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
}

func TestWriteAndQuerySingleSeries(t *testing.T) {
	db := Open(Options{})
	for i := 0; i < 100; i++ {
		err := db.Write(pt("latency", int64(i)*1e9,
			map[string]string{"src_city": "Auckland"},
			map[string]float64{"total_ms": float64(i + 1)}))
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Execute(Query{
		Measurement: "latency", Field: "total_ms",
		Start: 0, End: 100e9,
		Aggs: []AggKind{AggMin, AggMax, AggMean, AggMedian, AggCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Buckets) != 1 {
		t.Fatalf("res = %+v", res)
	}
	b := res[0].Buckets[0]
	if b.Count != 100 || b.Aggs[AggMin] != 1 || b.Aggs[AggMax] != 100 {
		t.Fatalf("bucket = %+v", b)
	}
	if math.Abs(b.Aggs[AggMean]-50.5) > 1e-9 || math.Abs(b.Aggs[AggMedian]-50.5) > 1e-9 {
		t.Fatalf("mean/median = %v/%v", b.Aggs[AggMean], b.Aggs[AggMedian])
	}
}

func TestQueryWindowing(t *testing.T) {
	db := Open(Options{})
	for i := 0; i < 60; i++ {
		db.Write(pt("m", int64(i)*1e9, nil, map[string]float64{"v": float64(i)}))
	}
	res, err := db.Execute(Query{
		Measurement: "m", Field: "v",
		Start: 0, End: 60e9, Window: 10e9,
		Aggs: []AggKind{AggCount, AggMean},
	})
	if err != nil {
		t.Fatal(err)
	}
	bs := res[0].Buckets
	if len(bs) != 6 {
		t.Fatalf("%d buckets", len(bs))
	}
	for i, b := range bs {
		if b.Count != 10 {
			t.Fatalf("bucket %d count = %d", i, b.Count)
		}
		wantMean := float64(i*10) + 4.5
		if math.Abs(b.Aggs[AggMean]-wantMean) > 1e-9 {
			t.Fatalf("bucket %d mean = %v, want %v", i, b.Aggs[AggMean], wantMean)
		}
		if b.Start != int64(i)*10e9 {
			t.Fatalf("bucket %d start = %d", i, b.Start)
		}
	}
}

func TestQueryFilterAndGroupBy(t *testing.T) {
	db := Open(Options{})
	cities := []string{"Auckland", "Sydney", "Tokyo"}
	for i := 0; i < 300; i++ {
		city := cities[i%3]
		db.Write(pt("latency", int64(i)*1e6,
			map[string]string{"src_city": city, "dst_city": "Los Angeles"},
			map[string]float64{"total_ms": float64(i % 3 * 100)}))
	}
	// Filter to one city.
	res, err := db.Execute(Query{
		Measurement: "latency", Field: "total_ms",
		Start: 0, End: 1e12,
		Where: []Tag{{"src_city", "Sydney"}},
		Aggs:  []AggKind{AggCount, AggMean},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Buckets[0].Count != 100 || res[0].Buckets[0].Aggs[AggMean] != 100 {
		t.Fatalf("filtered: %+v", res[0].Buckets[0])
	}
	// Group by city.
	res, err = db.Execute(Query{
		Measurement: "latency", Field: "total_ms",
		Start: 0, End: 1e12,
		GroupBy: "src_city",
		Aggs:    []AggKind{AggMean},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d groups", len(res))
	}
	if res[0].Group != "Auckland" || res[1].Group != "Sydney" || res[2].Group != "Tokyo" {
		t.Fatalf("group order: %v, %v, %v", res[0].Group, res[1].Group, res[2].Group)
	}
	if res[0].Buckets[0].Aggs[AggMean] != 0 || res[1].Buckets[0].Aggs[AggMean] != 100 ||
		res[2].Buckets[0].Aggs[AggMean] != 200 {
		t.Fatal("group means wrong")
	}
	// Filter with no matching key.
	res, err = db.Execute(Query{
		Measurement: "latency", Field: "total_ms",
		Start: 0, End: 1e12,
		Where: []Tag{{"nonexistent", "x"}},
		Aggs:  []AggKind{AggCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("unexpected groups: %+v", res)
	}
}

func TestQueryAcrossShards(t *testing.T) {
	db := Open(Options{ShardDuration: 10e9})
	for i := 0; i < 100; i++ {
		db.Write(pt("m", int64(i)*1e9, nil, map[string]float64{"v": 1}))
	}
	if db.ShardCount() != 10 {
		t.Fatalf("shards = %d", db.ShardCount())
	}
	res, err := db.Execute(Query{
		Measurement: "m", Field: "v", Start: 0, End: 100e9,
		Aggs: []AggKind{AggCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Buckets[0].Count != 100 {
		t.Fatalf("count = %d", res[0].Buckets[0].Count)
	}
	// Sub-range crossing a shard boundary.
	res, _ = db.Execute(Query{
		Measurement: "m", Field: "v", Start: 5e9, End: 25e9,
		Aggs: []AggKind{AggCount},
	})
	if res[0].Buckets[0].Count != 20 {
		t.Fatalf("subrange count = %d", res[0].Buckets[0].Count)
	}
}

func TestRetentionDropsOldShards(t *testing.T) {
	db := Open(Options{ShardDuration: 10e9, Retention: 30e9})
	for i := 0; i < 100; i++ {
		db.Write(pt("m", int64(i)*1e9, nil, map[string]float64{"v": 1}))
	}
	// maxT = 99e9, horizon = 69e9 → shards ending ≤69e9 dropped.
	if got := db.ShardCount(); got > 4 {
		t.Fatalf("%d shards survive retention", got)
	}
	res, err := db.Execute(Query{
		Measurement: "m", Field: "v", Start: 0, End: 100e9, Aggs: []AggKind{AggCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Buckets[0].Count > 40 {
		t.Fatalf("old data still queryable: %d", res[0].Buckets[0].Count)
	}
	// Writing a point older than the horizon is dropped.
	db.Write(pt("m", 1, nil, map[string]float64{"v": 1}))
	if _, dropped := db.WriteStats(); dropped != 1 {
		t.Fatalf("dropped = %d", dropped)
	}
}

// TestCheckRawStart: with a raw retention horizon, a raw query that
// starts behind it is refused with ErrBadResolution naming the horizon,
// and one that starts at it is accepted. Without a horizon nothing is.
func TestCheckRawStart(t *testing.T) {
	db := Open(Options{ShardDuration: 10e9, Retention: 30e9})
	for i := 0; i < 100; i++ {
		db.Write(pt("m", int64(i)*1e9, nil, map[string]float64{"v": 1}))
	}
	// maxT = 99e9, so the horizon is at 69e9.
	err := db.CheckRawStart(68e9)
	if !errors.Is(err, ErrBadResolution) || !strings.Contains(err.Error(), "30s") {
		t.Fatalf("start behind the horizon: err = %v, want ErrBadResolution naming 30s", err)
	}
	if err := db.CheckRawStart(69e9); err != nil {
		t.Fatalf("start at the horizon: %v", err)
	}
	if err := Open(Options{}).CheckRawStart(0); err != nil {
		t.Fatalf("no horizon: %v", err)
	}
}

// TestCheckWriteTime: a point time further ahead of the newest point
// than the tightest retention (here a tier's) is refused; one exactly
// that far ahead is accepted. An empty store, or one with no retention,
// takes any time.
func TestCheckWriteTime(t *testing.T) {
	db := Open(Options{ShardDuration: 10e9, Rollups: []RollupTier{{Width: 1e9, Retention: 30e9}}})
	for i := 0; i < 10; i++ {
		db.Write(pt("m", int64(i)*1e9, nil, map[string]float64{"v": 1}))
	}
	err := db.CheckWriteTime(39e9 + 1)
	if !errors.Is(err, ErrAheadOfHorizon) || !strings.Contains(err.Error(), "30s") {
		t.Fatalf("time beyond the horizon: err = %v, want ErrAheadOfHorizon naming 30s", err)
	}
	if err := db.CheckWriteTime(39e9); err != nil {
		t.Fatalf("time at the horizon: %v", err)
	}
	if err := Open(Options{Retention: 30e9}).CheckWriteTime(1e18); err != nil {
		t.Fatalf("empty store: %v", err)
	}
	free := Open(Options{})
	free.Write(pt("m", 1e9, nil, map[string]float64{"v": 1}))
	if err := free.CheckWriteTime(1e18); err != nil {
		t.Fatalf("no retention: %v", err)
	}
}

func TestQueryValidation(t *testing.T) {
	db := Open(Options{})
	cases := []Query{
		{},
		{Measurement: "m"},
		{Measurement: "m", Field: "v"}, // End <= Start
		{Measurement: "m", Field: "v", Start: 10, End: 5}, // inverted
		{Measurement: "m", Field: "v", End: 10, Aggs: []AggKind{"bogus"}},
		{Measurement: "m", Field: "v", End: 1 << 40, Window: 1}, // too many buckets
	}
	for i, q := range cases {
		if _, err := db.Execute(q); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestQueryAnswerBound: 48 groups × 2^18 buckets is 12.6 M buckets, which
// the per-group cap let through — Execute then allocated 3.84 GB. The raw
// path, the tier path and the cached tier path each refuse the group past
// 2^20 / 2^18 = 4 before allocating its accumulators, and an answer inside
// the bound still gets every group.
func TestQueryAnswerBound(t *testing.T) {
	for _, cache := range []int64{0, 1 << 20} {
		db := Open(Options{Rollups: []RollupTier{{Width: 1e9}}, QueryCache: cache})
		for g := 0; g < 48; g++ {
			db.Write(pt("latency", 1e9, map[string]string{"src_city": fmt.Sprint("city", g)},
				map[string]float64{"total_ms": float64(g)}))
		}
		for _, res := range []int64{ResolutionAuto, ResolutionRaw} {
			q := Query{Measurement: "latency", Field: "total_ms", End: 1 << 18 * 1e9,
				Window: 1e9, GroupBy: "src_city", Aggs: []AggKind{AggMean}, Resolution: res}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := db.Execute(q)
			runtime.ReadMemStats(&after)
			if err != ErrBadQuery {
				t.Fatalf("cache %d resolution %d: err = %v, want ErrBadQuery", cache, res, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
				t.Fatalf("cache %d resolution %d: the refused query allocated %d MB", cache, res, grew>>20)
			}

			q.End = 360e9
			out, err := db.Execute(q)
			if err != nil || len(out) != 48 || len(out[47].Buckets) != 360 {
				t.Fatalf("cache %d resolution %d: the dashboard shape: %d groups, %v", cache, res, len(out), err)
			}
		}
		db.Close()
	}
}

// TestQueryRangeOverflow: a range wider than int64 used to wrap End − Start
// negative; with no window the "one bucket" then had a negative width and
// the raw path indexed bucket −20. Such a range is refused, and the widest
// range that does fit answers as one bucket.
func TestQueryRangeOverflow(t *testing.T) {
	db := Open(Options{})
	db.Write(pt("m", 0, nil, map[string]float64{"v": 1}))
	if _, err := db.Execute(Query{Measurement: "m", Field: "v", Start: -9e18, End: 9e18}); err != ErrBadQuery {
		t.Fatalf("overflowing range: err = %v, want ErrBadQuery", err)
	}
	res, err := db.Execute(Query{Measurement: "m", Field: "v", Start: -4.6e18, End: 4.6e18,
		Aggs: []AggKind{AggCount}})
	if err != nil || len(res) != 1 || len(res[0].Buckets) != 1 || res[0].Buckets[0].Count != 1 {
		t.Fatalf("widest range: %+v, %v", res, err)
	}
}

func TestEmptyBucketAggs(t *testing.T) {
	db := Open(Options{})
	db.Write(pt("m", 5e9, nil, map[string]float64{"v": 7}))
	res, err := db.Execute(Query{
		Measurement: "m", Field: "v", Start: 0, End: 20e9, Window: 10e9,
		Aggs: []AggKind{AggMean, AggCount, AggMin},
	})
	if err != nil {
		t.Fatal(err)
	}
	b0, b1 := res[0].Buckets[0], res[0].Buckets[1]
	if b0.Count != 1 || b0.Aggs[AggMean] != 7 {
		t.Fatalf("bucket0 = %+v", b0)
	}
	if b1.Count != 0 || !math.IsNaN(b1.Aggs[AggMean]) || b1.Aggs[AggCount] != 0 {
		t.Fatalf("bucket1 = %+v", b1)
	}
}

func TestTagValues(t *testing.T) {
	// The tag index is shard-granular (as in Influx), so use small shards
	// to observe the time bounds.
	db := Open(Options{ShardDuration: 10e9})
	for _, c := range []string{"Tokyo", "Auckland", "Auckland", "Sydney"} {
		db.Write(pt("m", 1e9, map[string]string{"city": c}, map[string]float64{"v": 1}))
	}
	got := db.TagValues("city", 0, 10e9)
	want := []string{"Auckland", "Sydney", "Tokyo"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	if vals := db.TagValues("city", 20e9, 30e9); len(vals) != 0 {
		t.Fatalf("out-of-range tag values: %v", vals)
	}
	if vals := db.TagValues("nope", 0, 10e9); len(vals) != 0 {
		t.Fatalf("unknown key: %v", vals)
	}
}

// TestTagValuesSeesTierOnlySeries pins the /api/tags fix: a series whose raw
// points in the range have expired but whose rollup tier still answers
// Execute there must still be offered by the picker.
func TestTagValuesSeesTierOnlySeries(t *testing.T) {
	const minute, hour = int64(60e9), int64(3600e9)
	db := Open(Options{Retention: hour, Rollups: []RollupTier{{Width: minute, Retention: 24 * hour}}})
	defer db.Close()
	db.Write(pt("m", 10*minute, map[string]string{"src_city": "A"}, map[string]float64{"v": 1}))
	db.Write(pt("m", 5*hour+10*minute, map[string]string{"src_city": "B"}, map[string]float64{"v": 1}))
	res, err := db.Execute(Query{Measurement: "m", Field: "v", Start: 0, End: hour,
		Window: minute, GroupBy: "src_city", Aggs: []AggKind{AggCount}})
	if err != nil || len(res) != 1 || res[0].Group != "A" || res[0].Tier != minute {
		t.Fatalf("Execute over the expired hour: %+v, %v; want group A from the 60 s tier", res, err)
	}
	if got := db.TagValues("src_city", 0, hour); !reflect.DeepEqual(got, []string{"A"}) {
		t.Fatalf("TagValues over a range Execute answers for A: %v", got)
	}
	if got := db.TagValues("src_city", hour, 5*hour); len(got) != 0 {
		t.Fatalf("TagValues over a range holding no chunk: %v", got)
	}
	if got := db.TagValues("src_city", 0, 6*hour); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Fatalf("TagValues over everything: %v", got)
	}
}

func TestWriteValidation(t *testing.T) {
	db := Open(Options{})
	if err := db.Write(&Point{Name: "m", Time: 1}); err != ErrNoFields {
		t.Fatalf("err = %v", err)
	}
	db.Close()
	if err := db.Write(pt("m", 1, nil, map[string]float64{"v": 1})); err != ErrClosedDB {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteLine(t *testing.T) {
	db := Open(Options{})
	if err := db.WriteLine(`latency,src_city=Auckland total_ms=145.5 1000000000`); err != nil {
		t.Fatal(err)
	}
	if err := db.WriteLine(`garbage`); err == nil {
		t.Fatal("garbage accepted")
	}
	res, err := db.Execute(Query{
		Measurement: "latency", Field: "total_ms", Start: 0, End: 2e9,
		Aggs: []AggKind{AggMax},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Buckets[0].Aggs[AggMax] != 145.5 {
		t.Fatalf("res = %+v", res)
	}
}

func TestMixedFieldsPadWithNaN(t *testing.T) {
	// Points in one series with different field sets must not corrupt
	// columns.
	db := Open(Options{})
	db.Write(pt("m", 1, nil, map[string]float64{"a": 1}))
	db.Write(pt("m", 2, nil, map[string]float64{"b": 2}))
	db.Write(pt("m", 3, nil, map[string]float64{"a": 3, "b": 4}))
	resA, _ := db.Execute(Query{Measurement: "m", Field: "a", Start: 0, End: 10, Aggs: []AggKind{AggCount, AggSum}})
	resB, _ := db.Execute(Query{Measurement: "m", Field: "b", Start: 0, End: 10, Aggs: []AggKind{AggCount, AggSum}})
	if resA[0].Buckets[0].Count != 2 || resA[0].Buckets[0].Aggs[AggSum] != 4 {
		t.Fatalf("a: %+v", resA[0].Buckets[0])
	}
	if resB[0].Buckets[0].Count != 2 || resB[0].Buckets[0].Aggs[AggSum] != 6 {
		t.Fatalf("b: %+v", resB[0].Buckets[0])
	}
}

func TestQuantileSorted(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantileSorted(vs, 0.5); math.Abs(q-5.5) > 1e-9 {
		t.Fatalf("median = %v", q)
	}
	if q := quantileSorted(vs, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := quantileSorted(vs, 1); q != 10 {
		t.Fatalf("q1 = %v", q)
	}
	if !math.IsNaN(quantileSorted(nil, 0.5)) {
		t.Fatal("empty quantile")
	}
}

func TestLineRoundTripProperty(t *testing.T) {
	f := func(name string, tagK, tagV string, fieldV float64, ts int64) bool {
		if name == "" || tagK == "" {
			return true // identifiers must be non-empty; skip
		}
		if len(name) > 100 {
			name = name[:100]
		}
		if len(tagK) > 100 {
			tagK = tagK[:100]
		}
		if len(tagV) > 100 {
			tagV = tagV[:100]
		}
		// Line protocol cannot carry newlines, backslashes at end, NaN or Inf.
		for _, s := range []string{name, tagK, tagV} {
			for _, r := range s {
				if r == '\n' || r == '\r' || r == '\\' {
					return true
				}
			}
		}
		if math.IsNaN(fieldV) || math.IsInf(fieldV, 0) {
			return true
		}
		p := &Point{Name: name, Tags: []Tag{{tagK, tagV}}, Fields: []Field{{"v", fieldV}}, Time: ts}
		line := string(MarshalLine(nil, p))
		var got Point
		if err := ParseLine(line, &got); err != nil {
			return false
		}
		return got.Name == name && got.Tags[0] == p.Tags[0] &&
			got.Fields[0].Value == fieldV && got.Time == ts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBatch(t *testing.T) {
	db := Open(Options{})
	cities := []string{"Auckland", "Sydney", "Tokyo", "London"}
	batch := make([]Point, 0, 64)
	for i := 0; i < 64; i++ {
		batch = append(batch, *pt("latency", int64(i)*1e9,
			map[string]string{"src_city": cities[i%len(cities)]},
			map[string]float64{"total_ms": float64(i)}))
	}
	applied, err := db.WriteBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 64 {
		t.Fatalf("applied = %d", applied)
	}
	if w, d := db.WriteStats(); w != 64 || d != 0 {
		t.Fatalf("written=%d dropped=%d", w, d)
	}
	if db.SeriesCount() != len(cities) {
		t.Fatalf("series = %d", db.SeriesCount())
	}
	res, err := db.Execute(Query{
		Measurement: "latency", Field: "total_ms", Start: 0, End: 64e9,
		GroupBy: "src_city", Aggs: []AggKind{AggCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(cities) {
		t.Fatalf("%d groups", len(res))
	}
	for _, r := range res {
		if r.Buckets[0].Count != 16 {
			t.Fatalf("group %s count = %d", r.Group, r.Buckets[0].Count)
		}
	}
	// An empty batch is a no-op; a fieldless point fails the whole batch
	// before anything is written.
	if _, err := db.WriteBatch(nil); err != nil {
		t.Fatal(err)
	}
	bad := []Point{*pt("m", 1, nil, map[string]float64{"v": 1}), {Name: "m", Time: 2}}
	if n, err := db.WriteBatch(bad); err != ErrNoFields || n != 0 {
		t.Fatalf("err = %v, applied = %d", err, n)
	}
	if w, _ := db.WriteStats(); w != 64 {
		t.Fatalf("failed batch wrote points: written=%d", w)
	}
}

func TestWriteBatchRetention(t *testing.T) {
	db := Open(Options{ShardDuration: 10e9, Retention: 30e9})
	batch := []Point{
		*pt("m", 100e9, nil, map[string]float64{"v": 1}),
		*pt("m", 1e9, nil, map[string]float64{"v": 1}), // behind the horizon set by the first point
	}
	applied, err := db.WriteBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 { // retention-dropped points count as applied (handled)
		t.Fatalf("applied = %d", applied)
	}
	if w, d := db.WriteStats(); w != 1 || d != 1 {
		t.Fatalf("written=%d dropped=%d", w, d)
	}
}

func TestRetentionSweepsIdleStripes(t *testing.T) {
	// Regression: per-stripe retention only purged the stripe being
	// written, so a stripe whose series went idle kept expired shards —
	// and served them to queries — forever.
	db := Open(Options{ShardDuration: 10e9, Retention: 30e9, Stripes: 8})
	idle := map[string]string{"city": "IdleCity"}
	busy := map[string]string{"city": "BusyCity"}
	seriesKey := func(name string, tags []Tag) string { return string(appendSeriesKey(nil, name, tags)) }
	idleKey := seriesKey("m", []Tag{{"city", "IdleCity"}})
	busyKey := seriesKey("m", []Tag{{"city", "BusyCity"}})
	if stripeIndex(idleKey)&db.mask == stripeIndex(busyKey)&db.mask {
		t.Skip("keys collide onto one stripe; pick different names")
	}
	for i := 0; i < 10; i++ {
		db.Write(pt("m", int64(i)*1e9, idle, map[string]float64{"v": 1}))
	}
	// Only the busy series advances time, far past the idle data's horizon.
	for i := 0; i < 100; i++ {
		db.Write(pt("m", int64(100+i)*1e9, busy, map[string]float64{"v": 1}))
	}
	res, err := db.Execute(Query{Measurement: "m", Field: "v",
		Start: 0, End: 50e9, Where: []Tag{{"city", "IdleCity"}},
		Aggs: []AggKind{AggCount}})
	if err != nil {
		t.Fatal(err)
	}
	// The expired shards must be gone entirely (no groups) — not merely
	// empty buckets.
	if len(res) != 0 {
		t.Fatalf("idle stripe still serves expired data: %+v", res)
	}
	// maxT=199e9, horizon=169e9: only shards ending after that survive.
	if got := db.ShardCount(); got > 4 {
		t.Fatalf("%d shards survive retention", got)
	}
}

func TestStripeCountEquivalence(t *testing.T) {
	// The same writes through a single-lock DB and a striped DB must
	// answer queries identically.
	single := Open(Options{ShardDuration: 10e9, Stripes: 1})
	striped := Open(Options{ShardDuration: 10e9, Stripes: 16})
	cities := []string{"Auckland", "Sydney", "Tokyo", "London", "Frankfurt"}
	for i := 0; i < 500; i++ {
		p := pt("latency", int64(i)*1e8,
			map[string]string{"src_city": cities[i%len(cities)]},
			map[string]float64{"total_ms": float64(i % 97)})
		single.Write(p)
		striped.Write(pt("latency", int64(i)*1e8,
			map[string]string{"src_city": cities[i%len(cities)]},
			map[string]float64{"total_ms": float64(i % 97)}))
	}
	// End at 50e9 so every bucket is populated: empty buckets carry NaN
	// aggregates, which DeepEqual would (correctly) refuse to equate.
	q := Query{Measurement: "latency", Field: "total_ms", Start: 0, End: 50e9,
		Window: 10e9, GroupBy: "src_city",
		Aggs: []AggKind{AggCount, AggMean, AggMedian, AggP99}}
	a, err := single.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := striped.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("striped results differ:\nsingle:  %+v\nstriped: %+v", a, b)
	}
	if single.ShardCount() != striped.ShardCount() {
		t.Fatalf("shard counts differ: %d vs %d", single.ShardCount(), striped.ShardCount())
	}
	if single.SeriesCount() != striped.SeriesCount() {
		t.Fatalf("series counts differ: %d vs %d", single.SeriesCount(), striped.SeriesCount())
	}
}

func TestConcurrentWriteBatchAndQueries(t *testing.T) {
	// Race contract for the sink stage: several workers calling WriteBatch
	// on disjoint series while queries, tag scans and snapshots run.
	db := Open(Options{ShardDuration: 1e9})
	const workers, batches, batchLen = 4, 50, 32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			city := fmt.Sprintf("c%d", w)
			for n := 0; n < batches; n++ {
				batch := make([]Point, 0, batchLen)
				for i := 0; i < batchLen; i++ {
					batch = append(batch, *pt("m", int64(n*batchLen+i)*1e6,
						map[string]string{"city": city},
						map[string]float64{"v": float64(i)}))
				}
				if _, err := db.WriteBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; i < 200; i++ {
			if _, err := db.Execute(Query{Measurement: "m", Field: "v",
				Start: 0, End: 10e9, GroupBy: "city", Aggs: []AggKind{AggCount, AggP95}}); err != nil {
				t.Error(err)
				return
			}
			db.TagValues("city", 0, 10e9)
			db.Snapshot(io.Discard)
		}
	}()
	wg.Wait()
	<-readerDone
	if w, _ := db.WriteStats(); w != workers*batches*batchLen {
		t.Fatalf("written = %d, want %d", w, workers*batches*batchLen)
	}
	res, err := db.Execute(Query{Measurement: "m", Field: "v",
		Start: 0, End: 10e9, Aggs: []AggKind{AggCount}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Buckets[0].Count != workers*batches*batchLen {
		t.Fatalf("count = %d", res[0].Buckets[0].Count)
	}
}

func TestConcurrentWritesAndQueries(t *testing.T) {
	db := Open(Options{ShardDuration: 1e9})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			db.Write(pt("m", int64(i)*1e6,
				map[string]string{"city": fmt.Sprintf("c%d", i%8)},
				map[string]float64{"v": float64(i)}))
		}
	}()
	for {
		select {
		case <-done:
			res, err := db.Execute(Query{Measurement: "m", Field: "v", Start: 0, End: 21e9, Aggs: []AggKind{AggCount}})
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, r := range res {
				for _, b := range r.Buckets {
					total += b.Count
				}
			}
			if total != 20000 {
				t.Fatalf("count = %d", total)
			}
			return
		default:
			_, err := db.Execute(Query{Measurement: "m", Field: "v", Start: 0, End: 21e9,
				GroupBy: "city", Aggs: []AggKind{AggMean, AggP99}})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func BenchmarkWrite(b *testing.B) {
	db := Open(Options{})
	tags := map[string]string{"src_city": "Auckland", "dst_city": "Los Angeles", "dst_asn": "64004"}
	fields := map[string]float64{"internal_ms": 15, "external_ms": 130, "total_ms": 145}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Write(pt("latency", int64(i)*1e6, tags, fields))
	}
}

func BenchmarkQueryGrouped(b *testing.B) {
	db := Open(Options{})
	cities := []string{"Auckland", "Sydney", "Tokyo", "London", "Frankfurt"}
	for i := 0; i < 100000; i++ {
		db.Write(pt("latency", int64(i)*1e6,
			map[string]string{"src_city": cities[i%len(cities)]},
			map[string]float64{"total_ms": float64(i % 500)}))
	}
	q := Query{Measurement: "latency", Field: "total_ms", Start: 0, End: 101e9,
		Window: 10e9, GroupBy: "src_city",
		Aggs: []AggKind{AggMin, AggMax, AggMean, AggMedian}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}
