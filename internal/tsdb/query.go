package tsdb

import (
	"fmt"
	"math"
	"sort"
	"time"
)

var nan = math.NaN()

// AggKind selects an aggregation function.
type AggKind string

// Supported aggregations — the set Ruru's Grafana dashboards display
// ("min, max, median, mean" plus tail quantiles and counts).
const (
	AggMin    AggKind = "min"
	AggMax    AggKind = "max"
	AggMean   AggKind = "mean"
	AggMedian AggKind = "median"
	AggP95    AggKind = "p95"
	AggP99    AggKind = "p99"
	AggCount  AggKind = "count"
	AggSum    AggKind = "sum"
)

// ValidAgg reports whether k names a supported aggregation.
func ValidAgg(k AggKind) bool {
	switch k {
	case AggMin, AggMax, AggMean, AggMedian, AggP95, AggP99, AggCount, AggSum:
		return true
	}
	return false
}

// Resolution values for Query.Resolution beyond an explicit tier width.
const (
	// ResolutionAuto lets the planner pick the coarsest rollup tier whose
	// buckets align with the requested window, falling back to raw.
	ResolutionAuto int64 = 0
	// ResolutionRaw forces the raw-sample path even when a tier could
	// serve the query.
	ResolutionRaw int64 = -1
)

// Query selects windowed aggregates of one field.
type Query struct {
	// Measurement and Field name the series column to aggregate; both are
	// required.
	Measurement string
	Field       string
	// Start and End bound the query range [Start, End) in the data's own
	// clock (nanoseconds). End must be greater than Start.
	Start, End int64
	// Where lists equality filters on tag values, ANDed together.
	Where []Tag
	// GroupBy, when non-empty, produces one SeriesResult per distinct
	// value of this tag key (series without the key group under "").
	GroupBy string
	// Aggs selects the aggregations to compute; empty defaults to
	// []AggKind{AggMean}.
	Aggs []AggKind
	// Window is the output bucket width in nanoseconds. Window <= 0 means
	// a single bucket spanning the whole [Start, End) range.
	Window int64
	// Resolution controls which storage resolution serves the query:
	// ResolutionAuto (the zero value) lets the planner choose,
	// ResolutionRaw forces the raw path, and a positive value forces the
	// rollup tier with exactly that bucket width — failing with
	// ErrBadResolution if no such tier exists or its buckets do not align
	// with the requested window.
	Resolution int64
}

// Bucket is one output time window. Count is the number of raw samples the
// bucket aggregates (0 for an empty bucket) and is always populated;
// Aggs[AggCount] is the same value as a float64, present only when
// AggCount was requested.
type Bucket struct {
	Start int64               `json:"start"`
	Count int                 `json:"count"`
	Aggs  map[AggKind]float64 `json:"aggs"`
}

// MarshalJSON is AppendJSON for encoding/json: an empty bucket's NaN
// aggregates come out as null instead of failing the whole response.
func (b Bucket) MarshalJSON() ([]byte, error) {
	return b.AppendJSON(nil), nil
}

// SeriesResult is the output for one group.
type SeriesResult struct {
	Group string `json:"group"` // GroupBy tag value, "" without GroupBy
	// Tier reports which storage resolution served the query: the bucket
	// width (ns) of the rollup tier, or 0 when raw samples were scanned.
	Tier    int64    `json:"tier"`
	Buckets []Bucket `json:"buckets"`
}

// maxQueryBuckets bounds one answer: its groups times its buckets per group.
// Each bucket costs a struct, a map and its accumulator, so the bound caps
// what one query can make Execute allocate at a few hundred MB. The
// dashboard's 48 groups × 360 buckets and a week of minutes over 48 groups
// (484 k) both sit well inside it.
const maxQueryBuckets = 1 << 20

// Execute runs q and returns one SeriesResult per group, sorted by group.
// A query whose answer would hold more than 2^20 buckets, summed over its
// groups, fails with ErrBadQuery.
//
// When rollup tiers are configured (Options.Rollups) the resolution-aware
// planner first tries to serve the query from pre-aggregates: it picks the
// coarsest tier whose bucket width divides the window and whose buckets
// align with [Start, End), subject to Query.Resolution. A tier-served
// query merges O(range/tierWidth) pre-aggregates per series instead of
// buffering every raw sample; count/min/max are exact, sum/mean exact up
// to floating-point summation order (bit-identical to the raw path for
// integer-valued fields), and median/p95/p99 stay within one histogram
// bin (≤ ~25% relative error, typically a few percent) of the raw answer.
// The serving resolution is reported in SeriesResult.Tier.
func (db *DB) Execute(q Query) ([]SeriesResult, error) {
	if q.Measurement == "" || q.Field == "" || q.End <= q.Start {
		return nil, ErrBadQuery
	}
	if len(q.Aggs) == 0 {
		q.Aggs = []AggKind{AggMean}
	}
	for _, a := range q.Aggs {
		if !ValidAgg(a) {
			return nil, ErrUnknownAgg
		}
	}
	span := q.End - q.Start
	if span <= 0 { // End - Start overflowed int64
		return nil, ErrBadQuery
	}
	window := q.Window
	if window <= 0 {
		window = span
	}
	n := span / window
	if span%window != 0 {
		n++
	}
	if n > maxQueryBuckets {
		return nil, ErrBadQuery
	}
	nBuckets := int(n)
	// The answer may hold at most maxQueryBuckets buckets over all its
	// groups; each path refuses the group past maxGroups before allocating
	// anything for it.
	maxGroups := maxQueryBuckets / nBuckets
	if ti, err := db.planTier(&q, window); err != nil {
		return nil, err
	} else if ti >= 0 {
		if db.qcache != nil {
			if res, ok, err := db.executeCached(&q, window, nBuckets, maxGroups, ti); ok {
				return res, err
			}
		}
		return db.executeTier(&q, window, nBuckets, maxGroups, ti)
	}

	// Raw path. Candidate series are matched lock-free from the
	// copy-on-write directory; each stripe's read lock is held while that
	// stripe's chunks are scanned. A series lives entirely within one
	// stripe, so values are never split; a query concurrent with writes
	// sees each stripe at a (slightly) different instant — fine for the
	// monitoring workload this serves.
	matched := matchIdents(db.dir.Load(), &q)
	groups := map[string][][]float64{}
	for si, st := range db.stripes {
		locked := false
		for _, id := range matched {
			if id.stripeIdx != uint32(si) {
				continue
			}
			if !locked {
				st.mu.RLock()
				locked = true
			}
			group := ""
			if q.GroupBy != "" {
				group = tagValue(id.tags, q.GroupBy)
			}
			for _, sr := range id.raw {
				if sr.end <= q.Start || sr.start >= q.End {
					continue
				}
				ci := sr.findCol(q.Field)
				if ci < 0 {
					continue
				}
				col := sr.cols[ci]
				buckets := groups[group]
				if buckets == nil {
					if len(groups) == maxGroups {
						st.mu.RUnlock()
						return nil, ErrBadQuery
					}
					buckets = make([][]float64, nBuckets)
					groups[group] = buckets
				}
				// Series times are append-ordered; measurements arrive
				// roughly in order but not strictly — scan all.
				for i, ts := range sr.times {
					if ts < q.Start || ts >= q.End {
						continue
					}
					v := col[i]
					if math.IsNaN(v) {
						continue
					}
					b := int((ts - q.Start) / window)
					buckets[b] = append(buckets[b], v)
				}
			}
		}
		if locked {
			st.mu.RUnlock()
		}
	}

	out := make([]SeriesResult, 0, len(groups))
	for g, buckets := range groups {
		res := SeriesResult{Group: g, Buckets: make([]Bucket, nBuckets)}
		for i := range buckets {
			res.Buckets[i] = aggregate(q.Start+int64(i)*window, buckets[i], q.Aggs)
		}
		out = append(out, res)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Group < out[j].Group })
	return out, nil
}

// planTier is the resolution-aware planner: it returns the index into
// Options.Rollups of the tier that should serve the query, or -1 for the
// raw path. A tier is usable when its bucket width divides the effective
// window AND the query's Start/End both fall on tier bucket boundaries
// (otherwise tier buckets would straddle output buckets and the answer
// would differ from the raw path), AND its retention still covers Start.
// Under ResolutionAuto the coarsest usable tier wins; a positive
// Query.Resolution demands the tier with exactly that width and fails with
// ErrBadResolution when it does not exist or is not usable for this shape.
func (db *DB) planTier(q *Query, window int64) (int, error) {
	switch {
	case q.Resolution == ResolutionRaw:
		return -1, nil
	case q.Resolution > 0:
		for i := range db.opts.Rollups {
			if db.opts.Rollups[i].Width == q.Resolution {
				if !tierAligned(q, window, q.Resolution) {
					return -1, ErrBadResolution
				}
				return i, nil
			}
		}
		return -1, ErrBadResolution
	case q.Resolution != ResolutionAuto:
		return -1, ErrBadResolution
	}
	best := -1
	maxT := db.maxT.Load()
	for i := range db.opts.Rollups {
		t := &db.opts.Rollups[i]
		if tierAligned(q, window, t.Width) && db.tierCovers(t, q.Start, maxT) {
			best = i // tiers are sorted finest-first; keep the coarsest
		}
	}
	return best, nil
}

// CheckRawStart refuses a raw-resolution query that starts behind the raw
// retention horizon (Options.Retention behind the newest point), where
// raw data is partly or wholly gone: the error wraps ErrBadResolution and
// names the horizon. Execute itself answers such a query from whatever
// raw shards remain; /api/query calls this first.
func (db *DB) CheckRawStart(start int64) error {
	if ret := db.opts.Retention; ret > 0 && start < db.maxT.Load()-ret {
		return fmt.Errorf("%w: raw data is kept for %v behind the newest point, and start is behind that horizon",
			ErrBadResolution, time.Duration(ret))
	}
	return nil
}

// tierAligned reports whether a tier of the given bucket width can serve
// the query shape exactly: width divides the window and both range bounds
// sit on tier bucket boundaries.
func tierAligned(q *Query, window, width int64) bool {
	return width <= window && window%width == 0 &&
		floorDiv(q.Start, width)*width == q.Start &&
		floorDiv(q.End, width)*width == q.End
}

// tierCovers reports whether the tier's retention still holds data back to
// start. A tier that retains at least as long as raw storage is always
// acceptable: past both horizons neither source has the data, so the tier
// answers no worse than raw would.
func (db *DB) tierCovers(t *RollupTier, start, maxT int64) bool {
	return t.Retention == 0 || start >= maxT-t.Retention ||
		(db.opts.Retention > 0 && t.Retention >= db.opts.Retention)
}

// matchIdents returns the directory entries matching the query's
// measurement and Where filters, in interned (first-write) order — a fully
// lock-free scan of the published snapshot. A Where clause requires the
// tag key to be present with an equal value: a series without the key does
// not match even when the filter value is "".
func matchIdents(d *seriesDir, q *Query) []*seriesIdent {
	var out []*seriesIdent
	for _, id := range d.idents {
		if id.name != q.Measurement || !matchWhere(id.tags, q.Where) {
			continue
		}
		out = append(out, id)
	}
	return out
}

func matchWhere(tags []Tag, where []Tag) bool {
	for _, w := range where {
		ok := false
		for _, t := range tags {
			if t.Key == w.Key {
				ok = t.Value == w.Value
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func tagValue(tags []Tag, key string) string {
	for _, t := range tags {
		if t.Key == key {
			return t.Value
		}
	}
	return ""
}

// aggregate computes the requested aggregations over vals.
func aggregate(start int64, vals []float64, aggs []AggKind) Bucket {
	b := Bucket{Start: start, Count: len(vals), Aggs: make(map[AggKind]float64, len(aggs))}
	if len(vals) == 0 {
		for _, a := range aggs {
			if a == AggCount || a == AggSum {
				b.Aggs[a] = 0
			} else {
				b.Aggs[a] = nan
			}
		}
		return b
	}
	var sorted []float64
	needSort, needSum := false, false
	for _, a := range aggs {
		switch a {
		case AggMedian, AggP95, AggP99:
			needSort = true
		case AggMean, AggSum:
			needSum = true
		}
	}
	if needSort {
		sorted = make([]float64, len(vals))
		copy(sorted, vals)
		sort.Float64s(sorted)
	}
	// One pass for the sum even when both mean and sum are requested.
	sum := 0.0
	if needSum {
		for _, v := range vals {
			sum += v
		}
	}
	for _, a := range aggs {
		switch a {
		case AggMin:
			m := vals[0]
			for _, v := range vals[1:] {
				if v < m {
					m = v
				}
			}
			b.Aggs[a] = m
		case AggMax:
			m := vals[0]
			for _, v := range vals[1:] {
				if v > m {
					m = v
				}
			}
			b.Aggs[a] = m
		case AggMean:
			b.Aggs[a] = sum / float64(len(vals))
		case AggSum:
			b.Aggs[a] = sum
		case AggCount:
			b.Aggs[a] = float64(len(vals))
		case AggMedian:
			b.Aggs[a] = quantileSorted(sorted, 0.5)
		case AggP95:
			b.Aggs[a] = quantileSorted(sorted, 0.95)
		case AggP99:
			b.Aggs[a] = quantileSorted(sorted, 0.99)
		}
	}
	return b
}

// quantileSorted returns the linear-interpolated q-quantile of sorted vs.
func quantileSorted(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return nan
	}
	if q <= 0 {
		return vs[0]
	}
	if q >= 1 {
		return vs[len(vs)-1]
	}
	idx := q * float64(len(vs)-1)
	lo := int(idx)
	frac := idx - float64(lo)
	if lo+1 >= len(vs) {
		return vs[lo]
	}
	return vs[lo]*(1-frac) + vs[lo+1]*frac
}
