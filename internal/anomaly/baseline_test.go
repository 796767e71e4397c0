package anomaly

import (
	"math"
	"testing"
)

func TestEWMA(t *testing.T) {
	var e ewma
	if e.value != 0 {
		t.Fatalf("before any sample: %v", e.value)
	}
	e.add(10)
	if e.value != 10 {
		t.Fatalf("first sample: %v", e.value)
	}
	e.add(20) // 10 + 0.05·(20 − 10)
	if math.Abs(e.value-10.5) > 1e-12 {
		t.Fatalf("after second: %v", e.value)
	}
	e.add(10.5)
	if math.Abs(e.value-10.5) > 1e-12 {
		t.Fatalf("after third: %v", e.value)
	}
}

func TestRollingMedian(t *testing.T) {
	r := newRollingMedian(5)
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
	r := newRollingMedian(10)
	r.Add(5)
	r.Add(7)
	if r.Median() != 6 {
		t.Fatalf("median of two = %v", r.Median())
	}
}

func TestRollingMedianRobustToOutlier(t *testing.T) {
	// The property the firewall anecdote relies on: one 4000ms outlier
	// in a 100-sample window barely moves median/MAD, while it would
	// shift a mean noticeably.
	r := newRollingMedian(100)
	sum := 0.0
	for i := 0; i < 99; i++ {
		r.Add(150)
		sum += 150
	}
	r.Add(4000)
	sum += 4000
	if r.Median() != 150 {
		t.Fatalf("median moved to %v", r.Median())
	}
	if mean := sum / 100; mean < 185 {
		t.Fatalf("mean should have been dragged: %v", mean)
	}
}

func BenchmarkRollingMedian(b *testing.B) {
	r := newRollingMedian(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add(float64(i % 1000))
		if i%128 == 0 {
			_ = r.Median()
		}
	}
}
