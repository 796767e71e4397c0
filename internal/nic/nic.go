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
// Traffic sources (the synthetic generator, the pcap replayer) inject frames
// with Port.Inject/InjectBurst, which classify them onto a queue by Toeplitz
// hash of the 4-tuple — bit-exact with what NIC hardware RSS would do — and
// hand the buffer to that queue's ring. Worker cores poll their queue with
// RxBurst and return each burst to the pool with one FreeBurst when done.
//
// What happens when a queue is full is the port's overflow policy:
//
//   - Drop (default) is NIC-faithful: the frame is lost and counted in
//     Stats.Imissed exactly once, the same back-pressure signal a real NIC
//     exposes when software can't keep up with the wire.
//   - Block makes injection wait (spin → yield → sleep) for queue space, up
//     to an optional deadline — the right policy for lossless sources such
//     as pcap replay or correctness harnesses, where the source can be
//     paced by backpressure instead of silently corrupting the measurement
//     distribution.
//
// Queues are SPSC rings: one injecting goroutine per port, one worker per
// queue — the paper's topology.
package nic

import (
	"errors"
	"fmt"
	"net/netip"
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

// Get allocates a buffer, or nil if the pool is exhausted (counted).
func (p *Mempool) Get() *Buf {
	var one [1]*Buf
	if p.getBulk(one[:]) == 0 {
		p.allocFail.Add(1)
	}
	return one[0]
}

// getBulk moves as many free buffers as the pool has, up to len(dst), from
// the top of the stack into dst in stack order — dst[n-1] was the top, so
// a caller that pops dst from its end uses them in the order single Gets
// would have, and putting back an unused tail restores the stack exactly.
// It returns how many. A short count is not counted as a failure here: the
// injection paths count one only when they give up.
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
// before it returns). AllocFailures counts the Gets and injections that
// gave up for want of a buffer.
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
	// Block waits for queue space (spin → yield → sleep), bounded by
	// PortConfig.BlockTimeout when set. Lossless while the deadline holds;
	// frames that still can't be placed at the deadline are dropped and
	// counted once.
	Block
)

// String names the policy for logs and flags.
func (o OverflowPolicy) String() string {
	if o == Block {
		return "block"
	}
	return "drop"
}

// InjectStatus reports the fate of one injected frame.
type InjectStatus uint8

const (
	// InjectOK: the frame was enqueued.
	InjectOK InjectStatus = iota
	// InjectDropped: the queue was full (Drop policy) or stayed full past
	// the block deadline. Counted in Imissed.
	InjectDropped
	// InjectNoBuf: the mempool was exhausted. Counted in NoMbuf.
	InjectNoBuf
	// InjectErrFrame: the frame is oversize or unusable — permanent; do
	// not retry. Counted in Ierrors.
	InjectErrFrame
)

// OK reports whether the frame was enqueued.
func (s InjectStatus) OK() bool { return s == InjectOK }

// Retryable reports whether re-injecting the same frame can succeed once
// the pipeline drains (queue-full and pool-exhausted are transient;
// oversize frames are not).
func (s InjectStatus) Retryable() bool { return s == InjectDropped || s == InjectNoBuf }

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
	// BlockTimeout bounds how long Block-policy injection waits for queue
	// space. Zero means wait indefinitely.
	BlockTimeout time.Duration
}

// Port is the receive side of the virtual NIC.
type Port struct {
	queues []*ring.Ring[*Buf]
	qstats []queueCounters
	pool   *Mempool
	hasher *rss.Hasher

	policy       OverflowPolicy
	blockTimeout time.Duration
	stopped      atomic.Bool

	ierrors atomic.Uint64
	nombuf  atomic.Uint64

	// scratch used only on the injection path (single producer per port).
	parser   pkt.Parser
	sum      pkt.Summary
	stage    [][]*Buf // per-queue staging for InjectBurst
	spare    []*Buf   // buffers taken from the pool for the frames still to come
	one      [1]*Buf  // injectOne's burst of one
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
		queues:       make([]*ring.Ring[*Buf], cfg.Queues),
		qstats:       make([]queueCounters, cfg.Queues),
		pool:         cfg.Pool,
		hasher:       h,
		policy:       cfg.Policy,
		blockTimeout: cfg.BlockTimeout,
		stage:        make([][]*Buf, cfg.Queues),
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

// Policy returns the configured overflow policy.
func (p *Port) Policy() OverflowPolicy { return p.policy }

// Stop aborts in-progress and future Block-policy waits: blocked
// injections give up immediately (their frames are dropped and counted
// once, like a deadline expiry). Use it to unwedge a lossless source at
// shutdown, when the consumers that would have made room are gone.
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
	p        *Port
	n        int
	deadline time.Time
}

func (p *Port) waiter() waiter { return waiter{p: p} }

// wait sleeps the next rung and reports whether the caller should try
// again: false once the port is stopped or the BlockTimeout deadline (when
// configured, counted from the first wait) has passed.
func (w *waiter) wait() bool {
	p := w.p
	if p.stopped.Load() {
		return false
	}
	if p.blockTimeout > 0 {
		if w.n == 0 {
			w.deadline = time.Now().Add(p.blockTimeout)
		} else if time.Now().After(w.deadline) {
			return false
		}
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

// fill copies a frame into a pool buffer, or reports why it couldn't.
// Buffers come from the port's spare stack, restocked from the pool with
// one bulk get for the want frames the caller still has to place (this one
// included); whoever calls fill hands the leftovers back with returnSpare.
//
// Under the Block policy an exhausted mempool is waited out like a full
// queue (buffers come back as workers free them), bounded by BlockTimeout,
// so a lossless source never needs a caller-side retry loop. Before it
// blocks, fill flushes the burst's staged buffers, which would otherwise
// deadlock the wait: the pool's missing buffers sitting in our own
// unpushed stage.
//
//ruru:noalloc
func (p *Port) fill(frame []byte, ts int64, hash uint32, want int) (*Buf, InjectStatus) {
	if len(frame) > p.pool.bufSize {
		p.ierrors.Add(1)
		return nil, InjectErrFrame
	}
	if len(p.spare) == 0 && !p.restock(want) && p.policy == Block {
		p.flushStage()
		for w := p.waiter(); !p.restock(want) && w.wait(); {
		}
	}
	if len(p.spare) == 0 {
		p.pool.allocFail.Add(1)
		p.nombuf.Add(1)
		return nil, InjectNoBuf
	}
	b := p.spare[len(p.spare)-1]
	p.spare = p.spare[:len(p.spare)-1]
	b.Len = copy(b.Data, frame)
	b.Timestamp = ts
	b.RSSHash = hash
	return b, InjectOK
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

// injectOne is the single-frame injection tail shared by the Inject
// variants: copy into a pool buffer, then push it on the hash's queue as a
// burst of one, so flushQueue owns the overflow policy and the accounting
// for every injection path.
//
//ruru:noalloc
func (p *Port) injectOne(frame []byte, ts int64, hash uint32) InjectStatus {
	b, st := p.fill(frame, ts, hash, 1)
	if st != InjectOK {
		return st
	}
	p.one[0] = b
	if p.flushQueue(rss.Queue(hash, len(p.queues)), p.one[:]) == 0 {
		return InjectDropped
	}
	return InjectOK
}

// Inject delivers one frame to the port as if it arrived on the wire at
// timestamp ts (nanoseconds). The frame is copied into a pool buffer,
// classified by RSS hash, and enqueued on the owning queue. Injection is
// single-producer: one traffic source goroutine per port.
func (p *Port) Inject(frame []byte, ts int64) InjectStatus {
	return p.injectOne(frame, ts, p.classify(frame))
}

// InjectTuple is a fast-path injection for sources that already know the
// frame's 4-tuple (the synthetic generator): it skips re-parsing the frame.
func (p *Port) InjectTuple(frame []byte, ts int64, src, dst netip.Addr, srcPort, dstPort uint16) InjectStatus {
	return p.injectOne(frame, ts, p.hasher.HashTuple(src, dst, srcPort, dstPort))
}

// InjectBurst delivers a batch of frames in one call: every frame is
// classified and copied into a pool buffer, the batch is grouped by target
// queue, and each queue receives its group with a single burst enqueue —
// one synchronization round-trip per queue per burst instead of one per
// frame. Returns the number of frames enqueued.
//
// Frames that can't be placed follow the overflow policy: with Drop they
// are lost and counted (Imissed/NoMbuf/Ierrors) exactly once each; with
// Block the call waits for queue space up to BlockTimeout. Single producer
// per port, like all injection paths.
func (p *Port) InjectBurst(frames []Frame) int {
	return p.injectStaged(frames, nil, false)
}

// InjectPreclassifiedBurst is InjectBurst for sources that already know
// each frame's RSS hash (hashes[i] belongs to frames[i]) — the
// hardware-RSS model, where classification happened in NIC silicon and
// software only sees the hash in the descriptor. No parsing, no hashing:
// buffer copy and enqueue only. Extra hashes are ignored; missing ones
// default to 0.
func (p *Port) InjectPreclassifiedBurst(frames []Frame, hashes []uint32) int {
	return p.injectStaged(frames, hashes, true)
}

// injectStaged is the burst-injection body shared by InjectBurst and
// InjectPreclassifiedBurst (classified set: frame i's hash is hashes[i], 0
// past the end): take the burst's buffers from the pool in one bulk get,
// copy each frame into one, stage per target queue in arrival order,
// burst-push each queue's group, and give the buffers that went unused
// (oversize frames) back before returning. When the mempool runs dry
// mid-burst under the Block policy, fill flushes the stage first — those
// buffers are exactly what the pool is missing, and blocking while holding
// them would deadlock against ourselves.
//
//ruru:noalloc
func (p *Port) injectStaged(frames []Frame, hashes []uint32, classified bool) int {
	p.accepted = 0
	for i := range frames {
		f := &frames[i]
		var hash uint32
		if !classified {
			hash = p.classify(f.Data)
		} else if i < len(hashes) {
			hash = hashes[i]
		}
		b, st := p.fill(f.Data, f.TS, hash, len(frames)-i)
		if st != InjectOK {
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

// BurstStager batches frames for InjectBurst on behalf of sources that
// reuse their read buffer between packets (the generator, the pcap
// reader): each Add copies the frame into a per-slot staging arena and a
// full batch is injected in one call. Shared by the lossless drive paths
// so their batching semantics can't drift apart.
type BurstStager struct {
	port     *Port
	staging  [][]byte
	frames   []Frame
	accepted int
}

// NewBurstStager creates a stager that flushes every burst frames
// (default 64).
func NewBurstStager(port *Port, burst int) *BurstStager {
	if burst <= 0 {
		burst = 64
	}
	return &BurstStager{
		port:    port,
		staging: make([][]byte, burst),
		frames:  make([]Frame, 0, burst),
	}
}

// Add copies one frame into the batch, injecting the batch when full.
func (s *BurstStager) Add(data []byte, ts int64) {
	i := len(s.frames)
	if cap(s.staging[i]) < len(data) {
		s.staging[i] = make([]byte, len(data))
	}
	s.staging[i] = s.staging[i][:len(data)]
	copy(s.staging[i], data)
	s.frames = append(s.frames, Frame{Data: s.staging[i], TS: ts})
	if len(s.frames) == cap(s.frames) {
		s.Flush()
	}
}

// Flush injects any pending frames immediately (call before pacing sleeps
// and at end of stream).
func (s *BurstStager) Flush() {
	if len(s.frames) > 0 {
		s.accepted += s.port.InjectBurst(s.frames)
		s.frames = s.frames[:0]
	}
}

// Accepted returns the total number of frames the port has accepted.
func (s *BurstStager) Accepted() int { return s.accepted }

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
