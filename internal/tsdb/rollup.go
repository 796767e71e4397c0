package tsdb

// Multi-resolution rollups: the online downsampling subsystem.
//
// Raw storage answers any query exactly, but its cost grows linearly with
// retained traffic — a one-hour dashboard query re-scans and re-buckets
// every individual measurement in the range, under the same stripe locks
// the hot write path needs. Rollups trade a small, bounded amount of write
// work for constant-cost historical reads: at write time every point
// additionally feeds N configured tiers (default 1s/10s/1m), and each tier
// stores one pre-aggregate per (series, field, bucket) instead of raw
// points:
//
//	count, sum, min, max          — exact
//	sparse log-binned histogram   — approximate median/p95/p99
//
// Tiers have independent retention (raw short, coarse tiers long), so the
// timeline a dashboard scrolls through can span days while raw points are
// kept only minutes. The query planner in query.go picks the coarsest tier
// whose buckets align with the requested window and merges tier buckets
// streamingly — no [][]float64 buffering of raw values.
//
// Concurrency contract: tier state for a series lives in the same stripe as
// the series itself and is only touched under that stripe's lock, so the
// locking discipline (and the single-writer guarantee the sharded sink
// provides per series) is unchanged by rollups.

import (
	"math"
	"sort"
)

// RollupTier configures one pre-aggregation resolution.
type RollupTier struct {
	// Width is the tier's bucket width in the data's own clock
	// (nanoseconds). Must be > 0; tiers with non-positive or duplicate
	// widths are dropped by Open.
	Width int64
	// Retention drops tier buckets whose shard is older than this much
	// behind the newest point, independently of the raw retention
	// (0 = keep forever). Coarse tiers typically retain far longer than
	// raw points.
	Retention int64
}

// DefaultRollups returns the default tier ladder: 1s buckets kept 2h, 10s
// buckets kept 24h, 1m buckets kept 7 days.
func DefaultRollups() []RollupTier {
	return []RollupTier{
		{Width: 1e9, Retention: 2 * 3600e9},
		{Width: 10e9, Retention: 24 * 3600e9},
		{Width: 60e9, Retention: 7 * 24 * 3600e9},
	}
}

// Histogram layout: bin 0 is the underflow bin (values < histMin, including
// zero and negatives), bins 1..histBins-2 are log-spaced over
// [histMin, histMax), and bin histBins-1 is the overflow bin (≥ histMax).
// With 126 log bins over 12 decades each bin spans a factor of ~1.245, so
// quantile estimates stay within one bin of the raw answer — ≤ ~25%
// relative error in the worst case, typically a few percent — plenty for
// the p95/p99 panels this exists to serve. The range is chosen for Ruru's
// millisecond
// latency fields (1µs .. 11.5 days in ms units) but the units are whatever
// the field's are.
const (
	histBins = 128
	histMin  = 1e-3
	histMax  = 1e9
)

var (
	histInvLogGamma float64
	// histBounds[i] is the lower bound of bin i for i ≥ 1
	// (histBounds[1] == histMin, histBounds[histBins-1] == histMax).
	histBounds [histBins]float64
)

func init() {
	logGamma := math.Log(histMax/histMin) / float64(histBins-2)
	histInvLogGamma = 1 / logGamma
	for i := 1; i < histBins; i++ {
		histBounds[i] = histMin * math.Exp(float64(i-1)*logGamma)
	}
}

// binOf maps a value to its histogram bin: bin 0 below histMin, the last
// bin at or above histMax, a log bin in between. NaN never reaches here
// (the write path skips NaN field values, mirroring the raw query path).
func binOf(v float64) uint16 {
	if !(v >= histMin) {
		return 0
	}
	if v >= histMax {
		return histBins - 1
	}
	i := 1 + int(math.Log(v/histMin)*histInvLogGamma)
	// Clamp and correct for floating-point rounding at bin boundaries.
	if i < 1 {
		i = 1
	} else if i > histBins-2 {
		i = histBins - 2
	}
	if v < histBounds[i] {
		i--
	} else if i+1 < histBins && v >= histBounds[i+1] {
		i++
	}
	return uint16(i)
}

// histEntry is one occupied histogram bin. Buckets store their histogram
// sparsely (sorted by bin): a series' latency mass concentrates in a few
// adjacent bins, so this is typically a handful of entries instead of a
// dense 128-counter array per bucket.
type histEntry struct {
	bin uint16
	n   uint32
}

// rbucket is one tier bucket's pre-aggregate for one (series, field).
type rbucket struct {
	count    uint64
	sum      float64
	min, max float64
	hist     []histEntry // sorted by bin
}

// add folds one sample into the bucket.
func (b *rbucket) add(v float64, bin uint16) {
	if b.count == 0 || v < b.min {
		b.min = v
	}
	if b.count == 0 || v > b.max {
		b.max = v
	}
	b.count++
	b.sum += v
	// Sorted insert into the sparse histogram; the common case is the
	// last-touched (largest) bin or one near it, so scan from the tail.
	for i := len(b.hist) - 1; i >= 0; i-- {
		e := &b.hist[i]
		if e.bin == bin {
			e.n++
			return
		}
		if e.bin < bin {
			b.hist = append(b.hist, histEntry{})
			copy(b.hist[i+2:], b.hist[i+1:])
			b.hist[i+1] = histEntry{bin: bin, n: 1}
			return
		}
	}
	b.hist = append(b.hist, histEntry{})
	copy(b.hist[1:], b.hist)
	b.hist[0] = histEntry{bin: bin, n: 1}
}

// tierColumn holds one (series, field)'s buckets within one tier chunk,
// as parallel slices sorted by bucket start.
type tierColumn struct {
	starts  []int64
	buckets []rbucket
}

// at returns the bucket starting at start, inserting it if absent. The
// returned pointer is only valid until the next insertion (single-threaded
// under the stripe lock; used immediately).
func (c *tierColumn) at(start int64) *rbucket {
	n := len(c.starts)
	if n > 0 && c.starts[n-1] == start { // in-order arrival fast path
		return &c.buckets[n-1]
	}
	i := sort.Search(n, func(i int) bool { return c.starts[i] >= start })
	if i < n && c.starts[i] == start {
		return &c.buckets[i]
	}
	c.starts = append(c.starts, 0)
	copy(c.starts[i+1:], c.starts[i:])
	c.starts[i] = start
	c.buckets = append(c.buckets, rbucket{})
	copy(c.buckets[i+1:], c.buckets[i:])
	c.buckets[i] = rbucket{}
	return &c.buckets[i]
}

// tierSeries is one series' chunk of one rollup tier — the tier analogue of
// series: the buckets whose start falls in the shard slot [start, end), one
// tierColumn per field.
type tierSeries struct {
	start, end int64
	fields     map[string]*tierColumn
}

// normalizeRollups sorts tiers by width and drops invalid (non-positive
// width) or duplicate-width entries. Called once by Open.
func normalizeRollups(tiers []RollupTier) []RollupTier {
	out := make([]RollupTier, 0, len(tiers))
	for _, t := range tiers {
		if t.Width > 0 && t.Retention >= 0 {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Width < out[j].Width })
	dedup := out[:0]
	for i, t := range out {
		if i > 0 && t.Width == out[i-1].Width {
			continue
		}
		dedup = append(dedup, t)
	}
	return dedup
}

// Rollups returns the configured tiers, finest first (nil when rollups are
// disabled). The slice is shared; callers must not modify it.
func (db *DB) Rollups() []RollupTier {
	return db.opts.Rollups
}

// rollAcc accumulates merged tier buckets for one query output bucket.
// The dense histogram is only materialized when the query requests a
// quantile aggregation.
type rollAcc struct {
	count    uint64
	sum      float64
	min, max float64
	hist     *[histBins]uint64
}

// merge folds one tier bucket into the accumulator.
func (a *rollAcc) merge(b *rbucket, needQuant bool) {
	if b.count == 0 {
		return
	}
	if a.count == 0 || b.min < a.min {
		a.min = b.min
	}
	if a.count == 0 || b.max > a.max {
		a.max = b.max
	}
	a.count += b.count
	a.sum += b.sum
	if needQuant {
		if a.hist == nil {
			a.hist = new([histBins]uint64)
		}
		for _, e := range b.hist {
			a.hist[e.bin] += uint64(e.n)
		}
	}
}

// toBucket renders the accumulator as a query output bucket. Count, sum,
// min and max are exact (identical to the raw path up to float summation
// order); median/p95/p99 are estimated from the merged histogram and clamped
// into [min, max]. Empty accumulators mirror the raw path: count/sum 0,
// everything else NaN.
func (a *rollAcc) toBucket(start int64, aggs []AggKind) Bucket {
	b := Bucket{Start: start, Count: int(a.count), Aggs: make(map[AggKind]float64, len(aggs))}
	for _, k := range aggs {
		switch {
		case a.count == 0:
			if k == AggCount || k == AggSum {
				b.Aggs[k] = 0
			} else {
				b.Aggs[k] = nan
			}
		case k == AggMin:
			b.Aggs[k] = a.min
		case k == AggMax:
			b.Aggs[k] = a.max
		case k == AggMean:
			b.Aggs[k] = a.sum / float64(a.count)
		case k == AggSum:
			b.Aggs[k] = a.sum
		case k == AggCount:
			b.Aggs[k] = float64(a.count)
		case k == AggMedian:
			b.Aggs[k] = histQuantile(a.hist, a.count, 0.5, a.min, a.max)
		case k == AggP95:
			b.Aggs[k] = histQuantile(a.hist, a.count, 0.95, a.min, a.max)
		case k == AggP99:
			b.Aggs[k] = histQuantile(a.hist, a.count, 0.99, a.min, a.max)
		}
	}
	return b
}

// histQuantile estimates the q-quantile from a merged histogram with the
// same rank convention as quantileSorted: the fractional rank q·(n−1)
// linearly interpolates between the two adjacent order statistics, each of
// which is located in the histogram independently. Interpolating between
// per-statistic estimates (rather than within a single bin) keeps the
// estimate within one bin of the raw answer even for tiny counts, where
// adjacent order statistics can sit in distant bins. Every estimate is
// clamped into the exact [lo, hi] the bucket tracked.
func histQuantile(h *[histBins]uint64, count uint64, q float64, lo, hi float64) float64 {
	if count == 0 || h == nil {
		return nan
	}
	rank := q * float64(count-1)
	k := uint64(rank)
	frac := rank - float64(k)
	est := histValueAt(h, k, lo, hi)
	if frac > 0 && k+1 < count {
		est = est*(1-frac) + histValueAt(h, k+1, lo, hi)*frac
	}
	return math.Min(math.Max(est, lo), hi)
}

// histValueAt estimates the k-th order statistic (0-based) from the
// histogram: the underflow bin resolves to the exact minimum, the overflow
// bin to the exact maximum, and interior bins interpolate linearly by the
// statistic's position within the bin's population.
func histValueAt(h *[histBins]uint64, k uint64, lo, hi float64) float64 {
	var cum uint64
	for i := 0; i < histBins; i++ {
		c := h[i]
		if c == 0 {
			continue
		}
		if k < cum+c {
			switch i {
			case 0:
				return lo
			case histBins - 1:
				return hi
			default:
				l, u := histBounds[i], histBounds[i+1]
				return l + (u-l)*((float64(k-cum)+0.5)/float64(c))
			}
		}
		cum += c
	}
	return hi
}

// executeTier serves a query from one rollup tier by streaming tier buckets
// into per-group accumulators — the whole scan touches O(range/tierWidth)
// pre-aggregates per series instead of every raw sample. The planner
// (planTier) has already verified alignment, so each tier bucket maps to
// exactly one output bucket.
func (db *DB) executeTier(q *Query, window int64, nBuckets, ti int) ([]SeriesResult, error) {
	groups := db.scanTier(q, window, ti, q.Start, nBuckets)
	out := make([]SeriesResult, 0, len(groups))
	var zero rollAcc
	for g, accs := range groups {
		res := SeriesResult{Group: g, Tier: db.opts.Rollups[ti].Width, Buckets: make([]Bucket, nBuckets)}
		for i := range res.Buckets {
			a := &zero // a present group that put nothing in the range
			if accs != nil {
				a = &accs[i]
			}
			res.Buckets[i] = a.toBucket(q.Start+int64(i)*window, q.Aggs)
		}
		out = append(out, res)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Group < out[j].Group })
	return out, nil
}

// scanTier is the one walk over tier ti's chunks: it resolves group presence
// over the full [q.Start, q.End) range while merging tier buckets only from
// tailStart on, into nTail accumulators of width window. A plain execution
// passes tailStart = q.Start; the query cache passes the end of its frozen
// prefix, and because both run this loop — same iteration order, same merge
// calls — a refreshed tail is bit-identical to an uncached execution. A map
// entry with a nil accumulator slice marks a group that is present (some
// overlapping chunk carries the field) but contributed no tail data.
// Candidate series are matched lock-free from the directory; each stripe's
// read lock is held while that stripe's chunks are walked.
func (db *DB) scanTier(q *Query, window int64, ti int, tailStart int64, nTail int) map[string][]rollAcc {
	needQuant := false
	for _, a := range q.Aggs {
		if a == AggMedian || a == AggP95 || a == AggP99 {
			needQuant = true
		}
	}
	matched := matchIdents(db.dir.Load(), q)
	groups := map[string][]rollAcc{}
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
			for _, ts := range id.tiers[ti] {
				if ts.end <= q.Start || ts.start >= q.End {
					continue
				}
				col, ok := ts.fields[q.Field]
				if !ok {
					continue
				}
				accs, seen := groups[group]
				if !seen {
					groups[group] = nil
				}
				if nTail == 0 || ts.end <= tailStart {
					continue
				}
				// Tier buckets are sorted by start; visit only those in
				// [tailStart, q.End).
				lo := sort.Search(len(col.starts), func(i int) bool { return col.starts[i] >= tailStart })
				for i := lo; i < len(col.starts) && col.starts[i] < q.End; i++ {
					if accs == nil {
						accs = make([]rollAcc, nTail)
						groups[group] = accs
					}
					accs[(col.starts[i]-tailStart)/window].merge(&col.buckets[i], needQuant)
				}
			}
		}
		if locked {
			st.mu.RUnlock()
		}
	}
	return groups
}
