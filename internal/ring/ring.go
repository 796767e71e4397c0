// Package ring provides the lock-free ring buffers used as the hand-off
// between pipeline stages: NIC RX queues feed per-core workers exactly the
// way DPDK rings feed lcores in the Ruru paper.
//
// Ring is single-producer/single-consumer (the rte_ring SP/SC fast path):
// one atomic load/store pair per operation, no CAS. It is a power-of-two
// circular array with burst push/pop that amortize synchronization over
// whole bursts, and it exposes capacity, free-space and high-watermark
// introspection so upper layers can implement backpressure instead of
// discovering overflow after the fact.
package ring

import (
	"errors"
	"sync/atomic"
)

// ErrBadCapacity is returned by New when capacity is not a power of two.
var ErrBadCapacity = errors.New("ring: capacity must be a power of two and > 0")

type pad [56]byte // pads a uint64 to a full 64-byte cache line

// Ring is a lock-free SPSC queue of values of type T.
// The zero value is not usable; call New.
//
// Contract: exactly one goroutine may push and exactly one may pop. The
// producer owns tail, the consumer owns head; each only loads the other's
// index, so no CAS is needed. Violating the single-consumer side loses or
// duplicates items.
type Ring[T any] struct {
	buf  []T
	mask uint64

	head atomic.Uint64 // next slot to pop (owned by consumer)
	_    pad
	tail atomic.Uint64 // next slot to push (owned by producer)
	_    pad
	// maxLen is the highest depth observed at push time. Only the
	// producer stores it (single-writer), monitors load it.
	maxLen atomic.Uint64
	_      pad
}

// New returns a ring with the given capacity, which must be a power of two.
func New[T any](capacity int) (*Ring[T], error) {
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		return nil, ErrBadCapacity
	}
	return &Ring[T]{
		buf:  make([]T, capacity),
		mask: uint64(capacity - 1),
	}, nil
}

// MustNew is New that panics on error, for package-level initialization.
func MustNew[T any](capacity int) *Ring[T] {
	r, err := New[T](capacity)
	if err != nil {
		panic(err)
	}
	return r
}

// Cap returns the ring capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len returns the number of queued items. It is an instantaneous snapshot
// and only advisory under concurrency.
func (r *Ring[T]) Len() int {
	return int(r.tail.Load() - r.head.Load())
}

// Free returns Cap()-Len(): the instantaneous admission headroom.
func (r *Ring[T]) Free() int { return len(r.buf) - r.Len() }

// Watermark returns the highest depth any push has observed — the burst
// headroom actually consumed over the ring's life.
func (r *Ring[T]) Watermark() int { return int(r.maxLen.Load()) }

// note records depth at push time; producer-only, so a plain store race
// cannot occur and the value is monotonic.
func (r *Ring[T]) note(depth uint64) {
	if depth > r.maxLen.Load() {
		r.maxLen.Store(depth)
	}
}

// Push enqueues v. It returns false when the ring is full (the caller drops
// or retries — the NIC layer counts this as an imissed, like a real NIC).
//
//ruru:noalloc
func (r *Ring[T]) Push(v T) bool {
	tail := r.tail.Load()
	depth := tail - r.head.Load()
	if depth >= uint64(len(r.buf)) {
		return false
	}
	r.buf[tail&r.mask] = v
	r.tail.Store(tail + 1)
	r.note(depth + 1)
	return true
}

// Pop dequeues one item, reporting whether one was available.
//
//ruru:noalloc
func (r *Ring[T]) Pop() (T, bool) {
	var zero T
	head := r.head.Load()
	if head == r.tail.Load() {
		return zero, false
	}
	v := r.buf[head&r.mask]
	r.buf[head&r.mask] = zero // release references for GC
	r.head.Store(head + 1)
	return v, true
}

// PushBurst enqueues as many items from vs as fit, returning the count.
// This is the DPDK rte_ring_enqueue_burst analogue: one atomic round-trip
// amortized over the whole burst.
//
//ruru:noalloc
func (r *Ring[T]) PushBurst(vs []T) int {
	tail := r.tail.Load()
	used := tail - r.head.Load()
	free := uint64(len(r.buf)) - used
	n := uint64(len(vs))
	if n > free {
		n = free
	}
	for i := uint64(0); i < n; i++ {
		r.buf[(tail+i)&r.mask] = vs[i]
	}
	r.tail.Store(tail + n)
	r.note(used + n)
	return int(n)
}

// PopBurst dequeues up to len(out) items into out, returning the count.
//
//ruru:noalloc
func (r *Ring[T]) PopBurst(out []T) int {
	var zero T
	head := r.head.Load()
	avail := r.tail.Load() - head
	n := uint64(len(out))
	if n > avail {
		n = avail
	}
	for i := uint64(0); i < n; i++ {
		idx := (head + i) & r.mask
		out[i] = r.buf[idx]
		r.buf[idx] = zero
	}
	r.head.Store(head + n)
	return int(n)
}
