// Package nic implements the poll-mode packet I/O substrate that stands in
// for DPDK in this reproduction. It mirrors the parts of the DPDK dataplane
// Ruru's pipeline is built on:
//
//   - a Mempool of fixed-size packet buffers with explicit, bulk alloc/free
//     in LIFO order out of an arena outside the Go heap (rte_mempool /
//     rte_mbuf in hugepage memory),
//   - a Port with N receive queues fed through RSS (rte_eth_dev with an
//     RSS-configured rx queue set), and
//   - burst I/O: RxBurst (rte_eth_rx_burst) on the consumer side and
//     InjectBurst on the producer side, amortizing per-packet ring
//     synchronization over whole bursts.
//
// There is one way in. Traffic sources (the synthetic generator, a pcap
// capture) hand their frames to Drive, which batches and paces them into
// Port.InjectBurst. InjectBurst classifies each frame onto a queue by
// Toeplitz hash of the 4-tuple — bit-exact with what NIC hardware RSS would
// do — and hands each queue its share of the burst in one ring operation.
// Worker cores poll their queue with RxBurst and return each burst to the
// pool with one FreeBurst when done.
//
// What happens when a queue is full is the port's overflow policy:
//
//   - Drop (default) is NIC-faithful: the frame is lost and counted in
//     Stats.Imissed exactly once, the same back-pressure signal a real NIC
//     exposes when software can't keep up with the wire.
//   - Block makes injection wait (spin → yield → sleep) for queue space
//     until it appears or the port is stopped — the right policy for
//     lossless sources such as pcap replay or correctness harnesses, where
//     the source can be paced by backpressure instead of silently
//     corrupting the measurement distribution.
//
// Queues are SPSC rings: one injecting goroutine per port, one worker per
// queue — the paper's topology.
package nic

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ruru/internal/pkt"
	"ruru/internal/ring"
	"ruru/internal/rss"
)

// Errors returned by the package.
var (
	ErrPoolExhausted = errors.New("nic: mempool exhausted")
	ErrFrameTooBig   = errors.New("nic: frame exceeds buffer size")
	ErrBadQueue      = errors.New("nic: queue index out of range")
)

// Buf is a packet buffer: the rte_mbuf analogue. Data is a fixed-capacity
// slice owned by the Mempool; Len bytes of it are valid. Timestamp is the
// capture timestamp in nanoseconds on the source's clock (sub-microsecond
// resolution, as in the paper). RSSHash is the Toeplitz hash computed at
// injection, which the measurement engine reuses to index its flow tables.
type Buf struct {
	Data      []byte
	Len       int
	Timestamp int64
	RSSHash   uint32

	pool *Mempool
	// home is set while the buffer sits in its pool. Only the pool flips
	// it, under its lock: that is what makes a second free detectable.
	home bool
}

// Bytes returns the valid frame contents.
func (b *Buf) Bytes() []byte { return b.Data[:b.Len] }

// Free returns the buffer to its mempool. The buffer must not be used after
// Free; freeing it a second time panics. A worker holding a whole burst
// should return it with one FreeBurst instead.
func (b *Buf) Free() {
	one := [1]*Buf{b}
	b.pool.putBulk(one[:])
}

// FreeBurst returns a burst of buffers to their mempool under one lock
// acquisition — rte_mempool_put_bulk, and what a queue worker calls once
// per RxBurst. The same rules as Buf.Free apply to every buffer in it.
//
//ruru:noalloc
func FreeBurst(bufs []*Buf) {
	for len(bufs) > 0 {
		// One put per run of buffers from one pool: a single run in
		// practice, since a port draws on one pool.
		pool, n := bufs[0].pool, 1
		for n < len(bufs) && bufs[n].pool == pool {
			n++
		}
		pool.putBulk(bufs[:n])
		bufs = bufs[n:]
	}
}

// Mempool is a fixed-size pool of packet buffers: a stack of free buffers
// under one mutex, taken and returned a burst at a time. Allocation never
// touches the Go heap after construction: buffers circulate between the
// pool, the queues and the workers.
//
// The stack is LIFO on purpose. The buffer handed out next is the one freed
// last, so a pipeline that keeps up cycles through as many buffers as it
// has in flight — a few bursts, resident in cache — and the rest of the
// arena is never touched; a FIFO would walk all of it and copy every frame
// into cold memory.
//
// The frame memory is one arena outside the Go heap (an anonymous mapping
// where the platform has one): the collector neither scans it nor counts it
// toward its heap goal. Close unmaps it.
type Mempool struct {
	mu     sync.Mutex
	free   []*Buf // the stack; its top is the buffer freed last
	arena  []byte
	mapped bool // arena is a mapping Close must unmap

	bufSize int
	size    int

	allocFail atomic.Uint64
}

// NewMempool creates a pool of n buffers of bufSize bytes each.
func NewMempool(n, bufSize int) *Mempool {
	p := &Mempool{
		free:    make([]*Buf, n),
		bufSize: bufSize,
		size:    n,
	}
	p.arena, p.mapped = allocArena(n * bufSize)
	bufs := make([]Buf, n)
	for i := range bufs {
		bufs[i] = Buf{
			Data: p.arena[i*bufSize : (i+1)*bufSize : (i+1)*bufSize],
			pool: p,
			home: true,
		}
		p.free[n-1-i] = &bufs[i] // the first Get takes the arena's first buffer
	}
	return p
}

// getBulk moves as many free buffers as the pool has, up to len(dst), from
// the top of the stack into dst in stack order — dst[n-1] was the top, so
// a caller that pops dst from its end takes them in stack order, and
// putting back an unused tail restores the stack exactly. It returns how
// many. A short count is not counted as a failure
// here: injection counts one only when it gives up.
//
//ruru:noalloc
func (p *Mempool) getBulk(dst []*Buf) int {
	p.mu.Lock()
	n := min(len(dst), len(p.free))
	keep := len(p.free) - n
	for i, b := range p.free[keep:] {
		b.home = false
		dst[i] = b
	}
	p.free = p.free[:keep]
	p.mu.Unlock()
	return n
}

// putBulk returns bufs, all of this pool, to the top of the stack.
//
//ruru:noalloc
func (p *Mempool) putBulk(bufs []*Buf) {
	p.mu.Lock()
	for _, b := range bufs {
		if b.home {
			p.mu.Unlock()
			//ruru:ignore noalloc a double free ends the program; what boxing the message costs is moot
			panic("nic: packet buffer freed twice")
		}
		b.home = true
		b.Len, b.Timestamp, b.RSSHash = 0, 0, 0
		p.free = append(p.free, b) // within capacity: the stack was made Size deep
	}
	p.mu.Unlock()
}

// Close releases the arena once every buffer is home, and reports the
// buffers still out otherwise, leaving the pool as it was: a buffer
// somebody still holds must not lose its memory. After a successful Close
// the pool is empty for good. Closing twice is harmless.
func (p *Mempool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.arena == nil {
		return nil
	}
	if out := p.size - len(p.free); out > 0 {
		return fmt.Errorf("nic: mempool close: %d of %d buffers still out", out, p.size)
	}
	for _, b := range p.free {
		b.Data = nil
	}
	p.free = p.free[:0]
	arena := p.arena
	p.arena = nil
	if p.mapped {
		return freeArena(arena)
	}
	return nil
}

// Size returns the pool capacity. Available returns the buffers in the pool
// right now: Available() == Size() means nobody holds one — no frame is
// queued, no worker is mid-burst, and no injection call is in progress (an
// injection takes its burst's buffers up front and returns the unused ones
// before it returns). AllocFailures counts the frames injection gave up on
// for want of a buffer.
func (p *Mempool) Size() int { return p.size }
func (p *Mempool) Available() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}
func (p *Mempool) BufSize() int          { return p.bufSize }
func (p *Mempool) AllocFailures() uint64 { return p.allocFail.Load() }

// OverflowPolicy selects what injection does when the target queue is full.
type OverflowPolicy uint8

const (
	// Drop loses the frame and counts it in Imissed exactly once — the
	// behaviour of real NIC hardware when RX descriptors run out.
	Drop OverflowPolicy = iota
	// Block waits for queue space (spin → yield → sleep) until it appears
	// or the port is stopped. Lossless until Stop; frames still unplaced
	// then are dropped and counted once.
	Block
)

// String names the policy for logs and flags.
func (o OverflowPolicy) String() string {
	if o == Block {
		return "block"
	}
	return "drop"
}

// Frame is one wire frame handed to InjectBurst: the data plus its capture
// timestamp.
type Frame struct {
	Data []byte
	TS   int64
}

// Stats holds port-level counters matching the rte_eth_stats fields Ruru
// monitors.
type Stats struct {
	Ipackets uint64 // frames successfully enqueued
	Ibytes   uint64 // bytes successfully enqueued
	Imissed  uint64 // frames dropped: queue full (counted once per frame)
	Ierrors  uint64 // frames dropped: oversize/malformed
	NoMbuf   uint64 // frames dropped: mempool exhausted
}

// QueueStats is the per-RX-queue view: counters plus ring introspection
// (the DPDK rte_eth_dev per-queue stats plus ring watermarks).
type QueueStats struct {
	Ipackets  uint64 // frames enqueued on this queue
	Ibytes    uint64 // bytes enqueued on this queue
	Imissed   uint64 // frames dropped with this queue full
	Depth     int    // instantaneous ring occupancy
	Watermark int    // highest occupancy ever observed at enqueue
	Capacity  int    // ring capacity
}

// queueCounters is the hot per-queue counter block, cache-line padded so
// queues injected back-to-back don't false-share.
type queueCounters struct {
	ipackets atomic.Uint64
	ibytes   atomic.Uint64
	imissed  atomic.Uint64
	_        [40]byte
}

// PortConfig configures a Port.
type PortConfig struct {
	// Queues is the number of RX queues (≥1): the paper's per-core DPDK
	// receiver queues.
	Queues int
	// QueueDepth is the per-queue ring capacity (power of two).
	QueueDepth int
	// Pool provides packet buffers. Required.
	Pool *Mempool
	// Hasher computes the RSS hash. Defaults to the symmetric key,
	// matching Ruru's production configuration.
	Hasher *rss.Hasher
	// Policy selects the overflow behaviour (default Drop, NIC-faithful).
	Policy OverflowPolicy
}

// Port is the receive side of the virtual NIC.
type Port struct {
	queues []*ring.Ring[*Buf]
	qstats []queueCounters
	pool   *Mempool
	hasher *rss.Hasher

	policy  OverflowPolicy
	stopped atomic.Bool

	ierrors atomic.Uint64
	nombuf  atomic.Uint64

	// scratch used only on the injection path (single producer per port).
	parser   pkt.Parser
	sum      pkt.Summary
	stage    [][]*Buf // per-queue staging for InjectBurst
	spare    []*Buf   // buffers taken from the pool for the frames still to come
	accepted int      // frames the running burst has enqueued so far
}

// NewPort creates a port with the given configuration.
func NewPort(cfg PortConfig) (*Port, error) {
	if cfg.Queues < 1 {
		return nil, fmt.Errorf("nic: need at least one queue, got %d", cfg.Queues)
	}
	if cfg.Pool == nil {
		return nil, errors.New("nic: PortConfig.Pool is required")
	}
	depth := cfg.QueueDepth
	if depth == 0 {
		depth = 4096
	}
	h := cfg.Hasher
	if h == nil {
		h = rss.NewSymmetric() // the package's shared Hasher
	}
	p := &Port{
		queues: make([]*ring.Ring[*Buf], cfg.Queues),
		qstats: make([]queueCounters, cfg.Queues),
		pool:   cfg.Pool,
		hasher: h,
		policy: cfg.Policy,
		stage:  make([][]*Buf, cfg.Queues),
	}
	for i := range p.queues {
		r, err := ring.New[*Buf](depth)
		if err != nil {
			return nil, err
		}
		p.queues[i] = r
	}
	return p, nil
}

// NumQueues returns the number of RX queues.
func (p *Port) NumQueues() int { return len(p.queues) }

// Stop aborts in-progress and future Block-policy waits: blocked
// injections give up immediately, their frames dropped and counted once.
// It unwedges a lossless source at shutdown, when the consumers that would
// have made room are gone; Drive calls it when its context is cancelled.
func (p *Port) Stop() { p.stopped.Store(true) }

// classify computes the frame's RSS hash the way NIC silicon would: over
// the address and port bytes as they lie in the frame. Two IPv4-mapped
// IPv6 addresses hash as the IPv4 pair, as Hasher.HashTuple has it.
//
//ruru:noalloc
func (p *Port) classify(frame []byte) uint32 {
	s := &p.sum
	if err := p.parser.Parse(frame, s); err != nil {
		return 0
	}
	var (
		tuple [36]byte
		n, l4 int
		ip    = frame[s.Eth.HeaderLen:]
	)
	switch {
	case s.Decoded&pkt.LayerIPv4 != 0:
		n, l4 = copy(tuple[:], ip[12:20]), s.IP4.HeaderLen
	case s.Decoded&pkt.LayerIPv6 == 0:
		return 0
	case s.IP6.Src.Is4In6() && s.IP6.Dst.Is4In6():
		n = copy(tuple[:], ip[20:24])
		n += copy(tuple[n:], ip[36:40])
		l4 = s.IP6.HeaderLen
	default:
		n, l4 = copy(tuple[:], ip[8:40]), s.IP6.HeaderLen
	}
	if s.Decoded&(pkt.LayerTCP|pkt.LayerUDP) != 0 {
		n += copy(tuple[n:], ip[l4:l4+4]) // source port, destination port
	}
	return p.hasher.Hash(tuple[:n]) // absent ports are zero bytes: they add nothing
}

// waiter is the Block policy's wait loop, one rung per call: hot spin
// first, then cooperative yields, then exponentially growing sleeps capped
// at 64µs — long enough to let a stalled worker run, short enough that
// drain latency stays in the microsecond regime. Use:
//
//	for w := p.waiter(); !try() && w.wait(); {
//	}
type waiter struct {
	p *Port
	n int
}

func (p *Port) waiter() waiter { return waiter{p: p} }

// wait sleeps the next rung and reports whether the caller should try
// again: false once the port is stopped.
func (w *waiter) wait() bool {
	if w.p.stopped.Load() {
		return false
	}
	switch {
	case w.n < 64:
		// spin: the consumer is likely mid-burst on another core
	case w.n < 128:
		runtime.Gosched()
	default:
		time.Sleep(time.Duration(1<<uint(min(w.n-128, 6))) * time.Microsecond)
	}
	w.n++
	return true
}

// fill copies a frame into a pool buffer, or returns nil when it cannot —
// the frame oversize (counted in Ierrors) or the pool empty (NoMbuf).
// Buffers come from the port's spare stack, restocked from the pool with
// one bulk get for the want frames the caller still has to place (this one
// included); whoever calls fill hands the leftovers back with returnSpare.
//
// Under the Block policy an exhausted mempool is waited out like a full
// queue (buffers come back as workers free them) until the port is
// stopped, so a lossless source never needs a caller-side retry loop.
// Before it blocks, fill flushes the burst's staged buffers, which would
// otherwise deadlock the wait: the pool's missing buffers sitting in our
// own unpushed stage.
//
//ruru:noalloc
func (p *Port) fill(frame []byte, ts int64, hash uint32, want int) *Buf {
	if len(frame) > p.pool.bufSize {
		p.ierrors.Add(1)
		return nil
	}
	if len(p.spare) == 0 && !p.restock(want) && p.policy == Block {
		p.flushStage()
		for w := p.waiter(); !p.restock(want) && w.wait(); {
		}
	}
	if len(p.spare) == 0 {
		p.pool.allocFail.Add(1)
		p.nombuf.Add(1)
		return nil
	}
	b := p.spare[len(p.spare)-1]
	p.spare = p.spare[:len(p.spare)-1]
	b.Len = copy(b.Data, frame)
	b.Timestamp = ts
	b.RSSHash = hash
	return b
}

// restock takes up to want buffers from the pool into the empty spare
// stack and reports whether it got any.
//
//ruru:noalloc
func (p *Port) restock(want int) bool {
	if cap(p.spare) < want {
		p.spare = make([]*Buf, 0, want)
	}
	p.spare = p.spare[:p.pool.getBulk(p.spare[:want])]
	return len(p.spare) > 0
}

// returnSpare hands the buffers an injection took and did not use back to
// the pool, so that a pool at full strength means an idle port.
//
//ruru:noalloc
func (p *Port) returnSpare() {
	if len(p.spare) > 0 {
		p.pool.putBulk(p.spare)
		p.spare = p.spare[:0]
	}
}

// InjectBurst delivers a batch of frames in one call and returns how many
// were enqueued. It is the port's only way in: every frame is classified
// and copied into a pool buffer (the burst's buffers taken in one bulk
// get), the batch is staged per target queue in arrival order, and each
// queue receives its group with a single burst enqueue — one
// synchronization round-trip per queue per burst instead of one per frame.
// Buffers that went unused (oversize frames) go back before it returns.
//
// Frames that can't be placed follow the overflow policy: with Drop they
// are lost and counted (Imissed/NoMbuf/Ierrors) exactly once each; with
// Block the call waits for queue space and buffers until the port is
// stopped. When the mempool runs dry mid-burst under Block, fill flushes
// the stage first — those buffers are exactly what the pool is missing,
// and blocking while holding them would deadlock against ourselves.
// Single producer per port: one traffic source goroutine injects.
//
//ruru:noalloc
func (p *Port) InjectBurst(frames []Frame) int {
	p.accepted = 0
	for i := range frames {
		f := &frames[i]
		hash := p.classify(f.Data)
		b := p.fill(f.Data, f.TS, hash, len(frames)-i)
		if b == nil {
			continue // already counted
		}
		q := rss.Queue(hash, len(p.queues))
		p.stage[q] = append(p.stage[q], b)
	}
	p.flushStage()
	p.returnSpare()
	return p.accepted
}

// flushStage pushes every queue's staged group and empties the stage.
//
//ruru:noalloc
func (p *Port) flushStage() {
	for q := range p.stage {
		p.accepted += p.flushQueue(q, p.stage[q])
		p.stage[q] = p.stage[q][:0]
	}
}

// flushQueue burst-pushes staged buffers onto queue q under the overflow
// policy, returning how many were enqueued. Byte totals are tallied BEFORE
// publishing: once pushed, a buffer belongs to the consumer, which may
// free (and zero) it concurrently.
//
//ruru:noalloc
func (p *Port) flushQueue(q int, bufs []*Buf) int {
	if len(bufs) == 0 {
		return 0
	}
	var nbytes uint64
	for _, b := range bufs {
		nbytes += uint64(b.Len)
	}
	n := p.queues[q].PushBurst(bufs)
	if n < len(bufs) && p.policy == Block {
		for w := p.waiter(); n < len(bufs) && w.wait(); {
			n += p.queues[q].PushBurst(bufs[n:])
		}
	}
	if rest := bufs[n:]; len(rest) > 0 {
		p.qstats[q].imissed.Add(uint64(len(rest)))
		for _, b := range rest {
			nbytes -= uint64(b.Len) // still ours: safe to read
		}
		p.pool.putBulk(rest)
	}
	p.qstats[q].ipackets.Add(uint64(n))
	p.qstats[q].ibytes.Add(nbytes)
	return n
}

// RxBurst polls queue q for up to len(bufs) packets, returning the count.
// This is the rte_eth_rx_burst analogue; workers call it in a poll loop.
// The caller owns returned buffers and must free them, the whole burst at
// once with FreeBurst. Queues are SPSC rings: exactly one worker may poll a
// given queue.
//
//ruru:noalloc
func (p *Port) RxBurst(q int, bufs []*Buf) (int, error) {
	if q < 0 || q >= len(p.queues) {
		return 0, ErrBadQueue
	}
	return p.queues[q].PopBurst(bufs), nil
}

// QueueStats returns the per-queue counter and ring-introspection snapshot
// for queue q (zero value for out-of-range q).
func (p *Port) QueueStats(q int) QueueStats {
	if q < 0 || q >= len(p.queues) {
		return QueueStats{}
	}
	c := &p.qstats[q]
	r := p.queues[q]
	return QueueStats{
		Ipackets:  c.ipackets.Load(),
		Ibytes:    c.ibytes.Load(),
		Imissed:   c.imissed.Load(),
		Depth:     r.Len(),
		Watermark: r.Watermark(),
		Capacity:  r.Cap(),
	}
}

// Stats returns a snapshot of the port counters (per-queue counters summed).
func (p *Port) Stats() Stats {
	s := Stats{
		Ierrors: p.ierrors.Load(),
		NoMbuf:  p.nombuf.Load(),
	}
	for i := range p.qstats {
		s.Ipackets += p.qstats[i].ipackets.Load()
		s.Ibytes += p.qstats[i].ibytes.Load()
		s.Imissed += p.qstats[i].imissed.Load()
	}
	return s
}
