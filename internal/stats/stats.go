// Package stats provides the streaming statistics Ruru's analytics and
// anomaly stages use: exponentially weighted moving averages, a
// log-bucketed latency histogram with quantile estimation (the
// HDR-histogram idea specialized for latency in nanoseconds), and a rolling
// median/MAD window for robust anomaly baselines.
//
// Everything here is allocation-free after construction and safe to embed in
// per-queue hot paths. None of the types are safe for concurrent use; give
// each goroutine its own and merge.
package stats

import (
	"math"
	"math/bits"
	"sort"
)

// EWMA is an exponentially weighted moving average with configurable alpha.
type EWMA struct {
	Alpha float64 // weight of the newest sample, in (0,1]
	value float64
	init  bool
}

// Add incorporates x and returns the updated average.
func (e *EWMA) Add(x float64) float64 {
	if !e.init {
		e.value = x
		e.init = true
		return x
	}
	e.value += e.Alpha * (x - e.value)
	return e.value
}

// Value returns the current average (0 before any samples).
func (e *EWMA) Value() float64 { return e.value }

// LatencyHist is a log-bucketed histogram for latency values in nanoseconds.
// Buckets are arranged as (exponent, mantissa) pairs giving a fixed relative
// error of about 1/32 (3%), enough to reproduce the paper's min/max/median/
// mean/quantile panels. Range: 1ns to ~146h. Values outside are clamped.
type LatencyHist struct {
	counts [nBuckets]uint64
	total  uint64
	sum    float64
	min    int64
	max    int64
}

const (
	mantissaBits = 5 // 32 sub-buckets per octave: ~3% relative error
	nOctaves     = 40
	nBuckets     = nOctaves << mantissaBits
)

// NewLatencyHist returns an empty histogram.
func NewLatencyHist() *LatencyHist {
	return &LatencyHist{min: math.MaxInt64, max: math.MinInt64}
}

func bucketIndex(v int64) int {
	if v < 1 {
		v = 1
	}
	exp := 63 - bits.LeadingZeros64(uint64(v)) // floor(log2 v)
	var mant int
	if exp > mantissaBits {
		mant = int((uint64(v) >> (uint(exp) - mantissaBits)) & (1<<mantissaBits - 1))
	} else {
		mant = int(uint64(v)<<(mantissaBits-uint(exp))) & (1<<mantissaBits - 1)
	}
	idx := exp<<mantissaBits | mant
	if idx >= nBuckets {
		idx = nBuckets - 1
	}
	return idx
}

// bucketLow returns the lower bound of bucket idx (inverse of bucketIndex).
func bucketLow(idx int) int64 {
	exp := idx >> mantissaBits
	mant := idx & (1<<mantissaBits - 1)
	if exp > mantissaBits {
		return (1 << uint(exp)) | int64(mant)<<(uint(exp)-mantissaBits)
	}
	return (1 << uint(exp)) | int64(mant)>>(mantissaBits-uint(exp))
}

// Add records one latency sample in nanoseconds.
func (h *LatencyHist) Add(v int64) {
	h.counts[bucketIndex(v)]++
	h.total++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *LatencyHist) Count() uint64 { return h.total }

// Min and Max return exact extrema (0 if empty).
func (h *LatencyHist) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact maximum (0 if empty).
func (h *LatencyHist) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Mean returns the exact mean (0 if empty).
func (h *LatencyHist) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Quantile returns the approximate q-quantile (q in [0,1]) with ~3% relative
// error. Returns 0 if empty.
func (h *LatencyHist) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q >= 1 {
		return h.max // exact, like HDR's ValueAtPercentile(100)
	}
	rank := uint64(q * float64(h.total-1))
	var seen uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		seen += c
		if seen > rank {
			v := bucketLow(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Median is Quantile(0.5).
func (h *LatencyHist) Median() int64 { return h.Quantile(0.5) }

// Merge adds another histogram's contents into h.
func (h *LatencyHist) Merge(o *LatencyHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
	if o.total > 0 {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
}

// Reset clears the histogram.
func (h *LatencyHist) Reset() {
	*h = LatencyHist{min: math.MaxInt64, max: math.MinInt64}
}

// RollingMedian maintains a sliding window of the last N samples and serves
// robust statistics: median and MAD (median absolute deviation). The anomaly
// detectors use median+k·MAD as a spike threshold because a 4000 ms outlier
// would drag a mean/stddev baseline along with it, masking itself.
type RollingMedian struct {
	window  []float64
	scratch []float64
	next    int
	filled  bool
}

// NewRollingMedian creates a window of size n (n ≥ 1).
func NewRollingMedian(n int) *RollingMedian {
	if n < 1 {
		n = 1
	}
	return &RollingMedian{
		window:  make([]float64, n),
		scratch: make([]float64, n),
	}
}

// Add inserts a sample, evicting the oldest when full.
func (r *RollingMedian) Add(x float64) {
	r.window[r.next] = x
	r.next++
	if r.next == len(r.window) {
		r.next = 0
		r.filled = true
	}
}

// Len returns the number of valid samples in the window.
func (r *RollingMedian) Len() int {
	if r.filled {
		return len(r.window)
	}
	return r.next
}

func (r *RollingMedian) values() []float64 {
	n := r.Len()
	copy(r.scratch[:n], r.window[:n])
	return r.scratch[:n]
}

// Median returns the window median (0 if empty).
func (r *RollingMedian) Median() float64 {
	vs := r.values()
	if len(vs) == 0 {
		return 0
	}
	return medianOf(vs)
}

// MAD returns the median absolute deviation about the window median.
func (r *RollingMedian) MAD() float64 {
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
