package anomaly

import (
	"math"
	"sort"
)

// ewma is an exponentially weighted moving average giving weight
// baselineAlpha to the newest sample. It starts at its first sample and
// reads 0 before any.
type ewma struct {
	value float64
	init  bool
}

func (e *ewma) add(x float64) {
	if !e.init {
		e.value, e.init = x, true
		return
	}
	e.value += baselineAlpha * (x - e.value)
}

// rollingMedian maintains a sliding window of the last n samples and serves
// robust statistics: median and MAD (median absolute deviation). The spike
// detector uses median+k·MAD as its threshold because a 4000 ms outlier
// would drag a mean/stddev baseline along with it, masking itself.
type rollingMedian struct {
	window  []float64
	scratch []float64
	next    int
	filled  bool
}

// newRollingMedian creates a window of size n (n ≥ 1).
func newRollingMedian(n int) *rollingMedian {
	return &rollingMedian{
		window:  make([]float64, n),
		scratch: make([]float64, n),
	}
}

// Add inserts a sample, evicting the oldest when full.
func (r *rollingMedian) Add(x float64) {
	r.window[r.next] = x
	r.next++
	if r.next == len(r.window) {
		r.next = 0
		r.filled = true
	}
}

// Len returns the number of valid samples in the window.
func (r *rollingMedian) Len() int {
	if r.filled {
		return len(r.window)
	}
	return r.next
}

func (r *rollingMedian) values() []float64 {
	n := r.Len()
	copy(r.scratch[:n], r.window[:n])
	return r.scratch[:n]
}

// Median returns the window median (0 if empty).
func (r *rollingMedian) Median() float64 {
	vs := r.values()
	if len(vs) == 0 {
		return 0
	}
	return medianOf(vs)
}

// MAD returns the median absolute deviation about the window median.
func (r *rollingMedian) MAD() float64 {
	vs := r.values()
	if len(vs) == 0 {
		return 0
	}
	m := medianOf(vs)
	for i, v := range vs {
		vs[i] = math.Abs(v - m)
	}
	return medianOf(vs)
}

// medianOf sorts vs in place and returns its median.
func medianOf(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
