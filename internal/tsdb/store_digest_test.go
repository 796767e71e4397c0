package tsdb_test

// The parent-pinned store digest: one seeded workload — every write entry
// point, mixed and overlapping field sets on shared series, NaN values, mild
// reordering, backfill across shard slots (inside and beyond the raw
// horizon), a stretch where one series alone advances the clock so every
// other stripe's expired data is reachable only by maybeSweepAll, and a jump
// past the coarsest tier's retention — driven into three stores: "a" (eight
// stripes, raw retention, three tiers with different retentions), "a+cache"
// (the same behind the query cache) and "b" (two stripes, raw kept forever,
// a keep-forever and an expiring tier, a clock that crosses zero). After
// every phase the sorted Snapshot lines, Execute at raw / each tier / auto /
// a bogus resolution over four ranges and four shapes, TagValues,
// SeriesCount, ShardCount, WriteStats and CacheStats are recorded.
//
// testdata/parent_store_digest.txt was written by the code from BEFORE
// series came to own their chunks (RURU_UPDATE_PARENT_DIGEST=1 on a checkout
// of that commit — see docs/TESTING.md; this file uses only the package's
// exported API so it can be copied there). It is the oracle that the one
// index changed no stored point, no query result bit and no counter; do not
// regenerate it with the code under test. The one intended difference is
// listed in tagsWidened below.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ruru/internal/tsdb"
)

const (
	dsec = int64(1e9)
	dmin = 60 * dsec
)

// digestRec collects the digest lines of one store in recording order.
type digestRec struct {
	prefix string
	lines  []string
}

func (r *digestRec) sum(name string, h hash.Hash, n int) {
	r.lines = append(r.lines, fmt.Sprintf("%s/%s %x %d", r.prefix, name, h.Sum(nil), n))
}

func (r *digestRec) text(name, v string) {
	r.lines = append(r.lines, fmt.Sprintf("%s/%s = %s", r.prefix, name, v))
}

// hashResults folds one Execute outcome into h, floats by bit pattern, and
// returns the number of buckets it covered.
func hashResults(h hash.Hash, res []tsdb.SeriesResult, err error) int {
	if err != nil {
		fmt.Fprintf(h, "err %v\n", err)
		return 0
	}
	n := 0
	for _, sr := range res {
		fmt.Fprintf(h, "group %q tier %d buckets %d\n", sr.Group, sr.Tier, len(sr.Buckets))
		for _, b := range sr.Buckets {
			fmt.Fprintf(h, "%d %d", b.Start, b.Count)
			kinds := make([]string, 0, len(b.Aggs))
			for k := range b.Aggs {
				kinds = append(kinds, string(k))
			}
			sort.Strings(kinds)
			for _, k := range kinds {
				v := b.Aggs[tsdb.AggKind(k)]
				if math.IsNaN(v) {
					fmt.Fprintf(h, " %s=nan", k)
				} else {
					fmt.Fprintf(h, " %s=%016x", k, math.Float64bits(v))
				}
			}
			fmt.Fprintln(h)
			n++
		}
	}
	return n
}

func floorTo(t, w int64) int64 {
	q := t / w
	if t%w != 0 && t < 0 {
		q--
	}
	return q * w
}

var allAggs = []tsdb.AggKind{tsdb.AggMin, tsdb.AggMax, tsdb.AggMean, tsdb.AggMedian,
	tsdb.AggP95, tsdb.AggP99, tsdb.AggCount, tsdb.AggSum}

// storeWorkload drives one store through the seeded phases.
type storeWorkload struct {
	t   *testing.T
	db  *tsdb.DB
	rec *digestRec
	rng *rand.Rand
	t0  int64
	now int64

	series []digestSeries
	refs   map[string]tsdb.SeriesRef
	step   int
	live   hash.Hash
	nLive  int
}

type digestSeries struct {
	name string
	tags []tsdb.Tag
	sets [][]string // the field sets points of this series use
}

func newStoreWorkload(t *testing.T, db *tsdb.DB, rec *digestRec, t0 int64) *storeWorkload {
	w := &storeWorkload{t: t, db: db, rec: rec, rng: rand.New(rand.NewSource(19)),
		t0: t0, now: t0, refs: map[string]tsdb.SeriesRef{}, live: sha256.New()}
	srcs := []string{"Auckland", "Wellington", "Sydney", "Tokyo", "Los Angeles", "a,b=c d"}
	dsts := []string{"London", "Frankfurt", "Singapore", "São Paulo"}
	latSets := [][]string{
		{"total_ms", "internal_ms", "external_ms"},
		{"total_ms"},
		{"external_ms", "total_ms"},
		{"total_ms", "loss"},
	}
	for i, s := range srcs {
		for j, d := range dsts {
			tags := []tsdb.Tag{{Key: "src_city", Value: s}, {Key: "dst_city", Value: d}}
			if (i+j)%2 == 0 {
				tags = append(tags, tsdb.Tag{Key: "probe", Value: fmt.Sprintf("p%d", (i+j)%3)})
			}
			w.series = append(w.series, digestSeries{name: "latency", tags: tags, sets: latSets})
		}
	}
	for _, s := range srcs {
		w.series = append(w.series, digestSeries{name: "rtt",
			tags: []tsdb.Tag{{Key: "src_city", Value: s}},
			sets: [][]string{{"rtt_ms"}, {"rtt_ms", "total_ms"}}})
	}
	return w
}

// point builds one point of series si at time tm; about one value in twenty
// is NaN (field absent) unless finite is set.
func (w *storeWorkload) point(si int, tm int64, finite bool) (tsdb.Point, []string, []float64) {
	s := &w.series[si]
	set := s.sets[w.rng.Intn(len(s.sets))]
	vals := make([]float64, len(set))
	fields := make([]tsdb.Field, len(set))
	for i, k := range set {
		v := math.Round(w.rng.ExpFloat64()*40*1000) / 1000
		if w.rng.Intn(10) == 0 {
			v = float64(w.rng.Intn(3)) * 1e-4 // the histogram's underflow bin
		}
		if !finite && w.rng.Intn(20) == 0 {
			v = math.NaN()
		}
		vals[i] = v
		fields[i] = tsdb.Field{Key: k, Value: v}
	}
	return tsdb.Point{Name: s.name, Tags: append([]tsdb.Tag(nil), s.tags...), Fields: fields, Time: tm}, set, vals
}

// write sends a burst of points through one of the four entry points, chosen
// by the step counter so every series meets every entry point.
func (w *storeWorkload) write(sis []int, times []int64) {
	w.step++
	switch w.step % 4 {
	case 0:
		pts := make([]tsdb.Point, len(sis))
		for i := range sis {
			pts[i], _, _ = w.point(sis[i], times[i], false)
		}
		if n, err := w.db.WriteBatch(pts); err != nil || n != len(pts) {
			w.t.Fatalf("WriteBatch: %d, %v", n, err)
		}
	case 1:
		for i := range sis {
			p, _, _ := w.point(sis[i], times[i], false)
			if err := w.db.Write(&p); err != nil {
				w.t.Fatalf("Write: %v", err)
			}
		}
	case 2:
		for i := range sis {
			p, _, _ := w.point(sis[i], times[i], true) // line protocol has no NaN
			if err := w.db.WriteLine(string(tsdb.MarshalLine(nil, &p))); err != nil {
				w.t.Fatalf("WriteLine: %v", err)
			}
		}
	case 3:
		pts := make([]tsdb.RefPoint, len(sis))
		for i := range sis {
			p, set, vals := w.point(sis[i], times[i], false)
			key := fmt.Sprint(sis[i], set)
			ref, ok := w.refs[key]
			if !ok {
				var err error
				if ref, err = w.db.Ref(p.Name, p.Tags, set...); err != nil {
					w.t.Fatalf("Ref: %v", err)
				}
				w.refs[key] = ref
			}
			pts[i] = tsdb.RefPoint{Ref: ref, Time: times[i], Vals: vals}
		}
		if n, err := w.db.WriteBatchRef(pts); err != nil || n != len(pts) {
			w.t.Fatalf("WriteBatchRef: %d, %v", n, err)
		}
	}
}

// fill advances the clock by d in ~1.5 s steps, each writing one to six
// points at most 20 s behind the clock to random series (only[...] when
// given), and runs the dashboard query every 40 steps into the live digest.
func (w *storeWorkload) fill(d int64, only ...int) {
	end := w.now + d
	for w.now < end {
		w.now += dsec + w.rng.Int63n(dsec)
		n := 1 + w.rng.Intn(6)
		sis, times := make([]int, n), make([]int64, n)
		for i := range sis {
			if len(only) > 0 {
				sis[i] = only[w.rng.Intn(len(only))]
			} else {
				sis[i] = w.rng.Intn(len(w.series))
			}
			times[i] = w.now - w.rng.Int63n(20*dsec)
		}
		w.write(sis, times)
		if w.step%40 == 0 {
			qEnd := floorTo(w.now, dmin) + dmin
			res, err := w.db.Execute(tsdb.Query{Measurement: "latency", Field: "total_ms",
				Start: qEnd - 30*dmin, End: qEnd, Window: dmin, GroupBy: "src_city",
				Aggs: []tsdb.AggKind{tsdb.AggMean, tsdb.AggP95, tsdb.AggCount}})
			w.nLive += hashResults(w.live, res, err)
		}
	}
}

// backfill writes n points at times spread over the last span of the clock.
func (w *storeWorkload) backfill(n int, span int64) {
	for n > 0 {
		k := 1 + w.rng.Intn(5)
		if k > n {
			k = n
		}
		sis, times := make([]int, k), make([]int64, k)
		for i := range sis {
			sis[i] = w.rng.Intn(len(w.series))
			times[i] = w.now - w.rng.Int63n(span)
		}
		w.write(sis, times)
		n -= k
	}
}

// record digests the store's whole observable state under the phase's name.
func (w *storeWorkload) record(phase string) {
	db, rec := w.db, w.rec
	rec.sum(phase+"/live", w.live, w.nLive)
	w.live, w.nLive = sha256.New(), 0

	var buf bytes.Buffer
	n, err := db.Snapshot(&buf)
	if err != nil {
		w.t.Fatalf("Snapshot: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if buf.Len() == 0 {
		lines = nil
	}
	if int64(len(lines)) != n {
		w.t.Fatalf("Snapshot reported %d points, wrote %d lines", n, len(lines))
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	rec.sum(phase+"/snapshot", h, len(lines))

	minute := floorTo(w.now, dmin) + dmin
	type span struct {
		name       string
		start, end int64
		window     int64
	}
	spans := []span{
		{"recent", minute - 30*dmin, minute, dmin},
		{"old", w.t0, w.t0 + 60*dmin, dmin},
		{"mid", floorTo(w.now-3*60*dmin, 10*dmin), floorTo(w.now-3*60*dmin, 10*dmin) + 2*60*dmin, 2 * dmin},
		{"all", w.t0, minute, 10 * dmin},
	}
	resolutions := []int64{tsdb.ResolutionRaw, tsdb.ResolutionAuto, 7 * dsec}
	for _, tier := range db.Rollups() {
		resolutions = append(resolutions, tier.Width)
	}
	for _, res := range resolutions {
		h := sha256.New()
		n := 0
		for _, sp := range spans {
			shapes := []tsdb.Query{
				{Measurement: "latency", Field: "total_ms", GroupBy: "src_city", Aggs: allAggs, Window: sp.window},
				{Measurement: "latency", Field: "external_ms", Where: []tsdb.Tag{{Key: "dst_city", Value: "London"}},
					Aggs: []tsdb.AggKind{tsdb.AggSum, tsdb.AggMax, tsdb.AggMedian}, Window: sp.window},
				{Measurement: "latency", Field: "loss", GroupBy: "probe", Aggs: []tsdb.AggKind{tsdb.AggCount, tsdb.AggMin}, Window: sp.window},
				{Measurement: "rtt", Field: "rtt_ms"}, // one bucket over the range, default agg
			}
			for _, q := range shapes {
				q.Start, q.End, q.Resolution = sp.start, sp.end, res
				out, err := db.Execute(q)
				fmt.Fprintf(h, "%s %s/%s\n", sp.name, q.Measurement, q.Field)
				n += hashResults(h, out, err)
			}
		}
		rec.sum(fmt.Sprintf("%s/execute/%d", phase, res), h, n)
	}

	for _, key := range []string{"src_city", "probe"} {
		for _, sp := range spans {
			rec.text(fmt.Sprintf("%s/tags/%s/%s", phase, key, sp.name),
				strings.Join(db.TagValues(key, sp.start, sp.end), "|"))
		}
	}
	rec.text(phase+"/tags/nokey/all", strings.Join(db.TagValues("nokey", w.t0, minute), "|"))

	written, dropped := db.WriteStats()
	rec.text(phase+"/counts", fmt.Sprintf("series %d shards %d written %d dropped %d",
		db.SeriesCount(), db.ShardCount(), written, dropped))
	cs := db.CacheStats()
	rec.text(phase+"/cache", fmt.Sprintf("hits %d misses %d partial %d evictions %d bytes %d",
		cs.Hits, cs.Misses, cs.PartialRefreshes, cs.Evictions, cs.Bytes))
}

func (w *storeWorkload) run() {
	w.fill(120 * dmin)
	w.record("fill")

	w.backfill(300, 100*dmin)
	w.record("backfill")

	// Series 0 alone moves the clock five hours on: every stripe but its own
	// goes idle and only maybeSweepAll retires what expires there.
	w.fill(5*60*dmin, 0)
	w.record("idle")

	w.fill(30 * dmin)
	w.backfill(100, 4*60*dmin)
	w.record("resume")

	// Past every tier's retention in one step, then ten more minutes.
	w.now += 13 * 60 * dmin
	w.write([]int{3}, []int64{w.now})
	w.fill(10 * dmin)
	w.record("far")
}

func storeDigests(t *testing.T) []string {
	ladder := []tsdb.RollupTier{
		{Width: dsec, Retention: 60 * dmin},
		{Width: 10 * dsec, Retention: 3 * 60 * dmin},
		{Width: dmin, Retention: 12 * 60 * dmin},
	}
	stores := []struct {
		name string
		opts tsdb.Options
		t0   int64
	}{
		{"a", tsdb.Options{ShardDuration: 10 * dmin, Retention: 30 * dmin, Stripes: 8, Rollups: ladder},
			floorTo(1_700_000_000*dsec, 10*dmin)},
		{"a+cache", tsdb.Options{ShardDuration: 10 * dmin, Retention: 30 * dmin, Stripes: 8, Rollups: ladder,
			QueryCache: 1 << 20}, floorTo(1_700_000_000*dsec, 10*dmin)},
		{"b", tsdb.Options{ShardDuration: 15 * dmin, Stripes: 2, Rollups: []tsdb.RollupTier{
			{Width: 5 * dsec}, {Width: 30 * dsec, Retention: 2 * 60 * dmin}}},
			-90 * dmin},
	}
	var lines []string
	for _, s := range stores {
		db := tsdb.Open(s.opts)
		rec := &digestRec{prefix: s.name}
		newStoreWorkload(t, db, rec, s.t0).run()
		if _, dropped := db.WriteStats(); s.opts.Retention > 0 && dropped == 0 {
			t.Errorf("store %s: the workload never wrote behind the raw horizon", s.name)
		}
		db.Close()
		lines = append(lines, rec.lines...)
	}
	return lines
}

// tagsWidened lists the TagValues lines the /api/tags fix changes: ranges in
// which a series' raw chunks have expired while a rollup tier still holds its
// data. The parent listed only values with a raw chunk in the range; each
// line here must now list those and more. Every other line is bit for bit
// the parent's.
var tagsWidened = func() map[string]bool {
	m := map[string]bool{}
	for phase, spans := range map[string][]string{
		"fill": {"old", "mid"}, "backfill": {"old", "mid"},
		"idle": {"old", "mid", "all"}, "resume": {"old", "mid"},
	} {
		for _, store := range []string{"a", "a+cache"} {
			for _, key := range []string{"src_city", "probe"} {
				for _, sp := range spans {
					m[fmt.Sprintf("%s/%s/tags/%s/%s", store, phase, key, sp)] = true
				}
			}
		}
	}
	return m
}()

func parentStoreDigestPath() string { return filepath.Join("testdata", "parent_store_digest.txt") }

func TestStoreDigestMatchesParent(t *testing.T) {
	got := storeDigests(t)
	if os.Getenv("RURU_UPDATE_PARENT_DIGEST") != "" {
		if err := os.WriteFile(parentStoreDigestPath(), []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d lines)", parentStoreDigestPath(), len(got))
		return
	}
	raw, err := os.ReadFile(parentStoreDigestPath())
	if err != nil {
		t.Fatalf("parent digest missing (written on the parent commit with RURU_UPDATE_PARENT_DIGEST=1): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d digest lines, the parent wrote %d", len(got), len(want))
	}
	cached := map[string]string{}
	for i := range got {
		name, val, _ := strings.Cut(got[i], " ")
		wname, wval, _ := strings.Cut(want[i], " ")
		if name != wname {
			t.Fatalf("line %d is %s, the parent's is %s", i, name, wname)
		}
		switch {
		case tagsWidened[name]:
			if val == wval {
				t.Errorf("%s is listed in tagsWidened but equals the parent's", name)
			} else if !supersetOf(strings.TrimPrefix(val, "= "), strings.TrimPrefix(wval, "= ")) {
				t.Errorf("%s lost a value the parent listed:\n got  %s\n want %s and more", name, val, wval)
			}
		case val != wval:
			t.Errorf("%s differs from the parent commit's:\n got  %s\n want %s", name, val, wval)
		}
		// The cache must be invisible: "a+cache" answers exactly as "a".
		if rest, ok := strings.CutPrefix(name, "a/"); ok {
			cached[rest] = val
		} else if rest, ok := strings.CutPrefix(name, "a+cache/"); ok && !strings.HasSuffix(rest, "/cache") {
			if cached[rest] != val {
				t.Errorf("%s: cached store answers %s, uncached %s", rest, val, cached[rest])
			}
		}
	}
}

// supersetOf reports whether every |-separated value of part is in whole.
func supersetOf(whole, part string) bool {
	have := map[string]bool{}
	for _, v := range strings.Split(whole, "|") {
		have[v] = true
	}
	for _, v := range strings.Split(part, "|") {
		if v != "" && !have[v] {
			return false
		}
	}
	return true
}
