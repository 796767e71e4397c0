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
	"slices"
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

// tierSeries is one series' chunk of one rollup tier — the tier analogue of
// series: the buckets whose start falls in the shard slot [start, end), in
// pointer-free slices the collector need not scan. Row i holds bucket
// starts[i], one rcell per field in keys order:
// cells[i*len(keys) : (i+1)*len(keys)]. Rows are sparse and sorted by
// start — a 1 s tier chunk spans 3600 buckets, most of which stay
// empty at a few samples per series per second, so a dense slab indexed by
// bucket number would cost more than the samples it holds.
//
// A field is in keys from its first non-NaN value in the chunk on (the
// group-presence rule scanTier applies), and keys only grows, at the end:
// the position of a field never changes. keys may alias the ref's own
// field keys while it is still their prefix; it is then capped at its
// length, so extending it always copies.
type tierSeries struct {
	start, end int64
	keys       []string
	starts     []int64
	cells      []rcell
	multi      []rmulti    // the rest of every cell holding more than one sample
	hist       []histEntry // histogram arena: every rmulti's run, and dead entries
	dead       int         // arena entries no run owns; compacted past half
}

// rcell is one (bucket, field) pre-aggregate. n is 0 for an empty cell, 1
// for one sample — sum is the value itself and x its histogram bin — and 2
// for more: sum is the running sum and x indexes the chunk's multi table.
// One sample, the common case at high series cardinality, thus costs 16
// bytes and no allocation.
type rcell struct {
	sum  float64
	n, x uint32
}

// rmulti is the rest of a cell holding more than one sample: its count, its
// exact min and max, and its sparse histogram, the run hist[off:off+n] of
// the chunk's arena.
type rmulti struct {
	count    uint64
	min, max float64
	off      uint32
	n        uint16
}

// keyIndex returns the row position of the ref field keys[i] in ts, adding
// it as the chunk's last field if absent (re-laying out existing rows).
func (ts *tierSeries) keyIndex(keys []string, i int) int32 {
	if j := slices.Index(ts.keys, keys[i]); j >= 0 {
		return int32(j)
	}
	w := len(ts.keys)
	if w == i && (w == 0 || &ts.keys[0] == &keys[0]) {
		ts.keys = keys[: w+1 : w+1] // still a prefix of the ref's keys
	} else {
		ts.keys = append(ts.keys[:w:w], keys[i])
	}
	if rows := len(ts.starts); rows > 0 {
		cells := make([]rcell, rows*(w+1), cap(ts.cells)/w*(w+1))
		for r := 0; r < rows; r++ {
			copy(cells[r*(w+1):], ts.cells[r*w:(r+1)*w])
		}
		ts.cells = cells
	}
	return int32(w)
}

// row returns the cells of the bucket starting at bStart, inserting an
// empty row if absent. In-order arrival hits the last row; a backfill is a
// sorted insert of one row. The slice is valid until the next insertion
// (single-threaded under the stripe lock; used immediately).
//
//ruru:noalloc
func (ts *tierSeries) row(bStart int64) []rcell {
	w, n := len(ts.keys), len(ts.starts)
	i := n - 1
	if n == 0 || ts.starts[i] != bStart {
		i = n
		if n > 0 && ts.starts[n-1] > bStart {
			var found bool
			if i, found = slices.BinarySearch(ts.starts, bStart); found {
				return ts.cells[i*w : (i+1)*w]
			}
		}
		ts.starts = slices.Insert(ts.starts, i, bStart)
		ts.cells = slices.Grow(ts.cells, w)[:len(ts.cells)+w]
		copy(ts.cells[(i+1)*w:], ts.cells[i*w:])
		clear(ts.cells[i*w : (i+1)*w])
	}
	return ts.cells[i*w : (i+1)*w]
}

// agg returns the count, sum, min and max of c, a cell holding a sample.
// The sum of one sample v is 0 + v, as if it had been accumulated from
// zero: +0 for a lone −0, whose min and max stay −0.
func (ts *tierSeries) agg(c *rcell) (count uint64, sum, lo, hi float64) {
	if c.n == 1 {
		return 1, 0 + c.sum, c.sum, c.sum
	}
	m := &ts.multi[c.x]
	return m.count, c.sum, m.min, m.max
}

// add folds sample v, whose histogram bin is bin, into cell c of ts.
//
//ruru:noalloc
func (ts *tierSeries) add(c *rcell, v float64, bin uint16) {
	switch c.n {
	case 0:
		*c = rcell{sum: v, n: 1, x: uint32(bin)}
	case 1:
		// The first sample moves into a multi entry whose one-bin run ends
		// the arena, so the second one's new bin grows it in place.
		ts.multi = append(ts.multi, rmulti{count: 1, min: c.sum, max: c.sum, off: uint32(len(ts.hist)), n: 1})
		ts.hist = append(ts.hist, histEntry{bin: uint16(c.x), n: 1})
		*c = rcell{sum: 0 + c.sum, n: 2, x: uint32(len(ts.multi) - 1)}
		fallthrough
	default:
		m := &ts.multi[c.x]
		if v < m.min {
			m.min = v
		}
		if v > m.max {
			m.max = v
		}
		m.count++
		c.sum += v
		ts.histAdd(m, bin)
	}
}

// histAdd counts one sample of bin in m's run: a sorted insert scanning
// from the tail, where the last-touched (largest) bin or one near it
// usually is. Runs hold no spare room: a new bin grows the run in place
// when it ends the arena, and otherwise moves it there first, leaving its
// old entries dead until the arena is compacted.
//
//ruru:noalloc
func (ts *tierSeries) histAdd(m *rmulti, bin uint16) {
	end := m.off + uint32(m.n)
	run := ts.hist[m.off:end]
	i := len(run) - 1
	for i >= 0 && run[i].bin > bin {
		i--
	}
	if i >= 0 && run[i].bin == bin {
		run[i].n++
		return
	}
	if int(end) != len(ts.hist) {
		off := uint32(len(ts.hist))
		ts.hist = append(ts.hist, run...)
		ts.dead += len(run)
		m.off = off
	}
	ts.hist = append(ts.hist, histEntry{})
	run = ts.hist[m.off : m.off+uint32(m.n)+1]
	copy(run[i+2:], run[i+1:])
	run[i+1] = histEntry{bin: bin, n: 1}
	m.n++
	if ts.dead > len(ts.hist)/2 {
		ts.compact()
	}
}

// compact rewrites the arena without its dead entries.
func (ts *tierSeries) compact() {
	live := make([]histEntry, 0, len(ts.hist)-ts.dead)
	for i := range ts.multi {
		m := &ts.multi[i]
		off := uint32(len(live))
		live = append(live, ts.hist[m.off:m.off+uint32(m.n)]...)
		m.off = off
	}
	ts.hist, ts.dead = live, 0
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

// merge folds cell c of tier chunk ts, which holds a sample, into the
// accumulator.
func (a *rollAcc) merge(ts *tierSeries, c *rcell, needQuant bool) {
	count, sum, lo, hi := ts.agg(c)
	if a.count == 0 || lo < a.min {
		a.min = lo
	}
	if a.count == 0 || hi > a.max {
		a.max = hi
	}
	a.count += count
	a.sum += sum
	if needQuant {
		if a.hist == nil {
			a.hist = new([histBins]uint64)
		}
		if c.n == 1 {
			a.hist[c.x]++
			return
		}
		m := &ts.multi[c.x]
		for _, e := range ts.hist[m.off : m.off+uint32(m.n)] {
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
func (db *DB) executeTier(q *Query, window int64, nBuckets, maxGroups, ti int) ([]SeriesResult, error) {
	groups, err := db.scanTier(q, window, ti, q.Start, nBuckets, maxGroups)
	if err != nil {
		return nil, err
	}
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
// read lock is held while that stripe's chunks are walked. A group past
// maxGroups fails the scan with ErrBadQuery before anything is allocated
// for it.
func (db *DB) scanTier(q *Query, window int64, ti int, tailStart int64, nTail, maxGroups int) (map[string][]rollAcc, error) {
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
				fi := slices.Index(ts.keys, q.Field)
				if fi < 0 {
					continue
				}
				accs, seen := groups[group]
				if !seen {
					if len(groups) == maxGroups {
						st.mu.RUnlock()
						return nil, ErrBadQuery
					}
					groups[group] = nil
				}
				if nTail == 0 || ts.end <= tailStart {
					continue
				}
				// Rows are sorted by start; visit only those in
				// [tailStart, q.End).
				w := len(ts.keys)
				lo, _ := slices.BinarySearch(ts.starts, tailStart)
				for i := lo; i < len(ts.starts) && ts.starts[i] < q.End; i++ {
					c := &ts.cells[i*w+fi]
					if c.n == 0 {
						continue
					}
					if accs == nil {
						accs = make([]rollAcc, nTail)
						groups[group] = accs
					}
					accs[(ts.starts[i]-tailStart)/window].merge(ts, c, needQuant)
				}
			}
		}
		if locked {
			st.mu.RUnlock()
		}
	}
	return groups, nil
}
