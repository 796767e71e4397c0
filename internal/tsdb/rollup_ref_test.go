package tsdb

// The tier slab against the layout it replaced. rbucket and tierColumn.at
// below are the per-field sorted bucket slices a tier chunk used to hold,
// kept unchanged as the reference: TestTierSlabMatchesReference feeds both
// the same samples and requires every cell and every merged window to agree
// bit for bit.

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

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

// mergeBucket is the accumulator fold that went with rbucket.
func mergeBucket(a *rollAcc, b *rbucket) {
	if a.count == 0 || b.min < a.min {
		a.min = b.min
	}
	if a.count == 0 || b.max > a.max {
		a.max = b.max
	}
	a.count += b.count
	a.sum += b.sum
	if a.hist == nil {
		a.hist = new([histBins]uint64)
	}
	for _, e := range b.hist {
		a.hist[e.bin] += uint64(e.n)
	}
}

// tierSample draws one field value, weighted towards the cases where the
// slab's arithmetic could part from the reference.
func tierSample(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return math.NaN()
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 0
	case 3: // exactly on a bin's lower bound, histMax (the overflow bin) included
		return histBounds[1+rng.Intn(histBins-1)]
	case 4: // underflow bin
		return histMin * (rng.Float64()*2 - 1)
	case 5: // overflow bin
		return histMax * (1 + rng.Float64())
	case 6, 7: // a few repeated bins
		return float64(10 + rng.Intn(3))
	default: // spread over ~60 bins, so long runs grow, move and compact
		return 1e-2 * math.Exp(rng.Float64()*math.Log(1e6))
	}
}

// TestTierSlabMatchesReference writes the same randomized points through
// the DB and through the reference columns and compares what the tiers
// hold: per (series, tier chunk, field) the same buckets, each with the same
// count, sum/min/max bits and histogram, and over every aligned window of
// 1, 2, 6 and 60 tier buckets the same merged accumulator. The points
// include backfill into earlier rows and chunks, NaN fields, all-NaN
// points, −0, values on bin bounds, underflow and overflow, and, after the
// first third, a second ref adding field z to series a's chunks that
// already have rows.
func TestTierSlabMatchesReference(t *testing.T) {
	const shard = int64(120e9)
	tiers := []RollupTier{{Width: 1e9}, {Width: 10e9}, {Width: 60e9}}
	type colKey struct {
		series, field string
		ti            int
		shard         int64
	}
	var moved, compacted bool
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := Open(Options{ShardDuration: shard, Stripes: 2, Rollups: tiers})
		shapes := []struct {
			series string
			fields []string
			ref    SeriesRef
		}{
			{series: "a", fields: []string{"x", "y"}},
			{series: "b", fields: []string{"y"}},
			{series: "a", fields: []string{"z", "x"}},
		}
		for i := range shapes {
			ref, err := db.Ref("m", []Tag{{Key: "s", Value: shapes[i].series}}, shapes[i].fields...)
			if err != nil {
				t.Fatal(err)
			}
			shapes[i].ref = ref
		}
		model := map[colKey]*tierColumn{}
		lastDead := map[*tierSeries]int{}
		const steps = 3000
		var now int64
		for step := 0; step < steps; step++ {
			sh := &shapes[rng.Intn(2)]
			if step >= steps/3 {
				sh = &shapes[rng.Intn(3)]
			}
			now += rng.Int63n(4e8)
			tm := now
			if rng.Intn(8) == 0 {
				tm -= rng.Int63n(200e9)
			}
			vals := make([]float64, len(sh.fields))
			for j := range vals {
				vals[j] = tierSample(rng)
			}
			if _, err := db.WriteBatchRef([]RefPoint{{Ref: sh.ref, Time: tm, Vals: vals}}); err != nil {
				t.Fatal(err)
			}
			for ti, tier := range tiers {
				bStart := floorDiv(tm, tier.Width) * tier.Width
				k := colKey{series: sh.series, ti: ti, shard: floorDiv(bStart, shard) * shard}
				for j, v := range vals {
					if math.IsNaN(v) {
						continue
					}
					k.field = sh.fields[j]
					if model[k] == nil {
						model[k] = &tierColumn{}
					}
					model[k].at(bStart).add(v, binOf(v))
				}
			}
			for _, id := range db.dir.Load().idents {
				for _, list := range id.tiers {
					for _, ts := range list {
						moved = moved || ts.dead > 0
						compacted = compacted || ts.dead < lastDead[ts]
						lastDead[ts] = ts.dead
					}
				}
			}
		}

		seen := 0
		for _, id := range db.dir.Load().idents {
			series := id.tags[0].Value
			for ti, list := range id.tiers {
				for _, ts := range list {
					w := len(ts.keys)
					for fi, field := range ts.keys {
						k := colKey{series: series, field: field, ti: ti, shard: ts.start}
						col := model[k]
						if col == nil {
							t.Fatalf("seed %d: %+v is in the slab, not in the reference", seed, k)
						}
						seen++
						j := 0
						for r, start := range ts.starts {
							c := &ts.cells[r*w+fi]
							if c.n == 0 {
								continue
							}
							if j == len(col.starts) || col.starts[j] != start {
								t.Fatalf("seed %d %+v: slab bucket %d not in the reference", seed, k, start)
							}
							checkCell(t, ts, c, &col.buckets[j])
							j++
						}
						if j != len(col.starts) {
							t.Fatalf("seed %d %+v: slab has %d buckets, reference %d", seed, k, j, len(col.starts))
						}
					}
				}
			}
		}
		if seen != len(model) {
			t.Fatalf("seed %d: slab has %d (chunk, field) columns, reference %d", seed, seen, len(model))
		}

		// Merged windows, chunk by chunk and bucket by bucket in start order,
		// the order walkTier folds them in.
		for ti, tier := range tiers {
			for _, mult := range []int64{1, 2, 6, 60} {
				window := tier.Width * mult
				for _, id := range db.dir.Load().idents {
					series := id.tags[0].Value
					for _, field := range []string{"x", "y", "z"} {
						got, want := map[int64]*rollAcc{}, map[int64]*rollAcc{}
						acc := func(m map[int64]*rollAcc, start int64) *rollAcc {
							ws := floorDiv(start, window) * window
							if m[ws] == nil {
								m[ws] = &rollAcc{}
							}
							return m[ws]
						}
						for _, ts := range id.tiers[ti] {
							fi := slices.Index(ts.keys, field)
							if fi < 0 {
								continue
							}
							for r, start := range ts.starts {
								if c := &ts.cells[r*len(ts.keys)+fi]; c.n != 0 {
									acc(got, start).merge(ts, c, true)
								}
							}
						}
						var shards []int64
						for k := range model {
							if k.series == series && k.field == field && k.ti == ti {
								shards = append(shards, k.shard)
							}
						}
						slices.Sort(shards)
						for _, s := range shards {
							col := model[colKey{series: series, field: field, ti: ti, shard: s}]
							for j, start := range col.starts {
								mergeBucket(acc(want, start), &col.buckets[j])
							}
						}
						if len(got) != len(want) {
							t.Fatalf("seed %d %s.%s tier %d window %d: %d windows, want %d", seed, series, field, ti, window, len(got), len(want))
						}
						for ws, w := range want {
							g := got[ws]
							if g == nil || g.count != w.count || !sameBits(g.sum, w.sum) ||
								!sameBits(g.min, w.min) || !sameBits(g.max, w.max) || *g.hist != *w.hist {
								t.Fatalf("seed %d %s.%s tier %d window [%d, +%d): merged %+v, want %+v", seed, series, field, ti, ws, window, g, w)
							}
						}
					}
				}
			}
		}
		db.Close()
	}
	if !moved || !compacted {
		t.Fatalf("histogram runs moved %v, arena compacted %v: the samples no longer exercise both", moved, compacted)
	}
}

// checkCell compares one slab cell with its reference bucket.
func checkCell(t *testing.T, ts *tierSeries, c *rcell, b *rbucket) {
	t.Helper()
	count, sum, lo, hi := ts.agg(c)
	hist := []histEntry{{bin: uint16(c.x), n: 1}}
	if c.n > 1 {
		m := &ts.multi[c.x]
		hist = ts.hist[m.off : m.off+uint32(m.n)]
	}
	if count != b.count || !sameBits(sum, b.sum) || !sameBits(lo, b.min) || !sameBits(hi, b.max) ||
		!slices.Equal(hist, b.hist) {
		t.Fatalf("cell (%d, %v, %v, %v, %v), reference %+v", count, sum, lo, hi, hist, *b)
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
