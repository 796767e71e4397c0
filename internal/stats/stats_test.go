package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.Count() != 0 {
		t.Fatal("zero value not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Fatalf("count = %d", w.Count())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v", w.Mean())
	}
	if math.Abs(w.Variance()-4) > 1e-12 {
		t.Fatalf("variance = %v", w.Variance())
	}
	if math.Abs(w.Stddev()-2) > 1e-12 {
		t.Fatalf("stddev = %v", w.Stddev())
	}
	w.Reset()
	if w.Count() != 0 {
		t.Fatal("reset failed")
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	f := func(a, b []float64) bool {
		clamp := func(vs []float64) []float64 {
			out := vs
			for i, v := range out {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					out[i] = 0
				}
				// keep magnitudes moderate for float comparison
				out[i] = math.Mod(out[i], 1e6)
			}
			return out
		}
		a, b = clamp(a), clamp(b)
		var all, wa, wb Welford
		for _, v := range a {
			all.Add(v)
			wa.Add(v)
		}
		for _, v := range b {
			all.Add(v)
			wb.Add(v)
		}
		wa.Merge(&wb)
		if wa.Count() != all.Count() {
			return false
		}
		if all.Count() == 0 {
			return true
		}
		meanOK := math.Abs(wa.Mean()-all.Mean()) <= 1e-6*(1+math.Abs(all.Mean()))
		varOK := math.Abs(wa.Variance()-all.Variance()) <= 1e-6*(1+all.Variance())
		return meanOK && varOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(5)
	a.Merge(&b) // merging empty changes nothing
	if a.Count() != 1 || a.Mean() != 5 {
		t.Fatal("merge with empty broke accumulator")
	}
	b.Merge(&a) // merging into empty copies
	if b.Count() != 1 || b.Mean() != 5 {
		t.Fatal("merge into empty failed")
	}
}

func TestEWMA(t *testing.T) {
	e := EWMA{Alpha: 0.5}
	if e.Initialized() {
		t.Fatal("initialized before any sample")
	}
	e.Add(10)
	if e.Value() != 10 {
		t.Fatalf("first sample: %v", e.Value())
	}
	e.Add(20)
	if e.Value() != 15 {
		t.Fatalf("after second: %v", e.Value())
	}
	e.Add(15)
	if e.Value() != 15 {
		t.Fatalf("after third: %v", e.Value())
	}
}

func TestLatencyHistBasics(t *testing.T) {
	h := NewLatencyHist()
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Median() != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	for i := int64(1); i <= 1000; i++ {
		h.Add(i * 1000) // 1µs .. 1ms
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 1000 || h.Max() != 1000000 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if math.Abs(h.Mean()-500500) > 1 {
		t.Fatalf("mean = %v", h.Mean())
	}
	med := h.Median()
	if math.Abs(float64(med)-500000) > 0.04*500000 {
		t.Fatalf("median = %d, want ~500000 within 4%%", med)
	}
}

func TestLatencyHistQuantileAccuracy(t *testing.T) {
	// Against a log-uniform stream, every quantile must be within the
	// advertised ~3% relative error (we allow 5% for bucket-edge effects).
	h := NewLatencyHist()
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := int64(math.Exp(rng.Float64()*14 + 7)) // ~1µs .. ~20min spread
		h.Add(v)
		vals = append(vals, float64(v))
	}
	res := NewReservoir(20000, 1)
	for _, v := range vals {
		res.Add(v)
	}
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		exact := res.Quantile(q)
		got := float64(h.Quantile(q))
		if math.Abs(got-exact) > 0.05*exact {
			t.Errorf("q=%.2f: hist=%v exact=%v (err %.1f%%)", q, got, exact, 100*math.Abs(got-exact)/exact)
		}
	}
}

func TestLatencyHistClamping(t *testing.T) {
	h := NewLatencyHist()
	h.Add(0)  // clamps to 1
	h.Add(-5) // clamps to 1
	h.Add(math.MaxInt64)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Quantile(0) < 0 {
		t.Fatal("negative quantile")
	}
	if h.Quantile(2) != h.Max() || h.Quantile(-1) <= 0 {
		t.Fatal("q clamping broken")
	}
}

func TestLatencyHistMerge(t *testing.T) {
	a, b, all := NewLatencyHist(), NewLatencyHist(), NewLatencyHist()
	for i := int64(1); i < 500; i++ {
		a.Add(i * 10)
		all.Add(i * 10)
	}
	for i := int64(500); i < 1000; i++ {
		b.Add(i * 10)
		all.Add(i * 10)
	}
	a.Merge(b)
	if a.Count() != all.Count() || a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatal("merge lost data")
	}
	if a.Median() != all.Median() {
		t.Fatalf("merged median %d != %d", a.Median(), all.Median())
	}
	// Merging an empty histogram must not disturb min/max.
	a.Merge(NewLatencyHist())
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatal("empty merge disturbed extrema")
	}
}

func TestBucketMonotonicity(t *testing.T) {
	// bucketIndex must be monotone non-decreasing and bucketLow must
	// invert it to within one bucket.
	prev := -1
	for v := int64(1); v < 1<<30; v = v*5/4 + 1 {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d", v)
		}
		prev = idx
		low := bucketLow(idx)
		if low > v {
			t.Fatalf("bucketLow(%d)=%d exceeds value %d", idx, low, v)
		}
		// relative error bound
		if float64(v-low)/float64(v) > 0.04 {
			t.Fatalf("bucket error at %d: low=%d", v, low)
		}
	}
}

func TestRollingMedian(t *testing.T) {
	r := NewRollingMedian(5)
	if r.Median() != 0 || r.MAD() != 0 || r.Len() != 0 {
		t.Fatal("empty window not zeroed")
	}
	for _, v := range []float64{10, 12, 11, 13, 9} {
		r.Add(v)
	}
	if r.Len() != 5 {
		t.Fatalf("len = %d", r.Len())
	}
	if r.Median() != 11 {
		t.Fatalf("median = %v", r.Median())
	}
	// MAD of {10,12,11,13,9} about 11 is median{1,1,0,2,2} = 1.
	if r.MAD() != 1 {
		t.Fatalf("MAD = %v", r.MAD())
	}
	// Sliding: push 5 large values; median must follow.
	for i := 0; i < 5; i++ {
		r.Add(100)
	}
	if r.Median() != 100 {
		t.Fatalf("median after slide = %v", r.Median())
	}
}

func TestRollingMedianPartialWindow(t *testing.T) {
	r := NewRollingMedian(10)
	r.Add(5)
	r.Add(7)
	if r.Median() != 6 {
		t.Fatalf("median of two = %v", r.Median())
	}
	if NewRollingMedian(0).Len() != 0 {
		t.Fatal("size-0 window should clamp to 1")
	}
}

func TestRollingMedianRobustToOutlier(t *testing.T) {
	// The property the firewall anecdote relies on: one 4000ms outlier
	// in a 100-sample window barely moves median/MAD, while it would
	// shift a mean noticeably.
	r := NewRollingMedian(100)
	var w Welford
	for i := 0; i < 99; i++ {
		r.Add(150)
		w.Add(150)
	}
	r.Add(4000)
	w.Add(4000)
	if r.Median() != 150 {
		t.Fatalf("median moved to %v", r.Median())
	}
	if w.Mean() < 185 {
		t.Fatalf("mean should have been dragged: %v", w.Mean())
	}
}

func TestReservoirExactWhenSmall(t *testing.T) {
	r := NewReservoir(100, 42)
	for i := 1; i <= 100; i++ {
		r.Add(float64(i))
	}
	if r.Quantile(0) != 1 || r.Quantile(1) != 100 {
		t.Fatalf("extrema: %v..%v", r.Quantile(0), r.Quantile(1))
	}
	if q := r.Quantile(0.5); math.Abs(q-50.5) > 0.01 {
		t.Fatalf("median = %v", q)
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Sampling 1k from 100k uniform values: the sample mean must be near
	// the stream mean.
	r := NewReservoir(1000, 99)
	for i := 0; i < 100000; i++ {
		r.Add(float64(i))
	}
	if r.Seen() != 100000 {
		t.Fatalf("seen = %d", r.Seen())
	}
	mean := r.Quantile(0.5)
	if math.Abs(mean-50000) > 5000 {
		t.Fatalf("reservoir median %v too far from 50000", mean)
	}
}

func TestReservoirEmpty(t *testing.T) {
	r := NewReservoir(10, 0)
	if r.Quantile(0.5) != 0 {
		t.Fatal("empty reservoir quantile")
	}
}

func BenchmarkLatencyHistAdd(b *testing.B) {
	h := NewLatencyHist()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Add(int64(i)%1000000 + 1)
	}
}

func BenchmarkLatencyHistQuantile(b *testing.B) {
	h := NewLatencyHist()
	for i := int64(0); i < 100000; i++ {
		h.Add(i%1000000 + 1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.Quantile(0.99)
	}
}

func BenchmarkWelfordAdd(b *testing.B) {
	var w Welford
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Add(float64(i))
	}
}

func BenchmarkRollingMedian(b *testing.B) {
	r := NewRollingMedian(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add(float64(i % 1000))
		if i%128 == 0 {
			_ = r.Median()
		}
	}
}
