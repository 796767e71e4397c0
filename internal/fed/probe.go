package fed

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ruru/internal/analytics"
	"ruru/internal/mq"
	"ruru/internal/tsdb"
)

// ProbeConfig configures the remote-write client. Addr, ID and SpoolDir
// are required; zero values elsewhere get production-shaped defaults. The
// bounds no deployment tunes are constants: maxUnacked, maxSpoolBytes, the
// mq.DefaultHWM subscription and the dialBackoffMax reconnect ladder.
type ProbeConfig struct {
	// Addr is the aggregator's TCP address (host:port).
	Addr string
	// ID is this probe's stable identity; the aggregator tags every series
	// with probe=<ID> and keys its dedup state on it. Restarts must reuse
	// the same ID and SpoolDir TOGETHER: an ID reused over a wiped spool
	// is detected at connect (sequence numbers jump past the aggregator's
	// watermark), but batches collected before that first connect may be
	// discarded by the dedup as presumed resends.
	ID string
	// SpoolDir holds the unacked-batch spool (created if absent).
	SpoolDir string
	// BatchSize is the number of measurements per remote-write batch
	// (default 256); FlushEvery bounds how long a partial batch waits
	// (default 200ms).
	BatchSize  int
	FlushEvery time.Duration
	// MaxSegmentBytes caps one spool segment file (default 4 MiB).
	MaxSegmentBytes int64
}

// The probe's backpressure bounds and reconnect ladder.
const (
	// maxUnacked bounds in-flight batches and maxSpoolBytes the on-disk
	// spool. At either bound the collector stops draining the bus and
	// measurements shed at the subscription's mq.DefaultHWM, counted in
	// ProbeStats.Dropped.
	maxUnacked    = 512
	maxSpoolBytes = 128 << 20
	// The reconnect backoff starts at dialBackoffMin, doubles per failed
	// dial and is capped at dialBackoffMax.
	dialBackoffMin = 50 * time.Millisecond
	dialBackoffMax = 2 * time.Second
)

// Probe streams the pipeline's enriched measurements to an aggregator:
// batch → spool (sequence number assigned) → send → ack → forget. Create
// with NewProbe, drive with Run, release with Close.
type Probe struct {
	cfg ProbeConfig
	sub *mq.Subscription

	mu      sync.Mutex
	cond    *sync.Cond
	sp      *spool
	pending []spoolRec // unacked batches, ascending seq
	next    int        // index into pending of the next batch to send
	conn    net.Conn   // live connection, nil while down
	closed  bool

	connected    atomic.Bool
	ackedSeq     atomic.Uint64
	connects     atomic.Uint64
	disconnects  atomic.Uint64
	batchesSent  atomic.Uint64
	resent       atomic.Uint64
	pointsOut    atomic.Uint64
	decodeErrors atomic.Uint64
	closeDropped atomic.Uint64
}

// ProbeStats is a snapshot of the remote-write client's counters — the
// backpressure ledger of the federation edge, surfaced in ruru.Stats.
type ProbeStats struct {
	Enabled   bool   `json:",omitempty"`
	ID        string `json:",omitempty"`
	Addr      string `json:",omitempty"`
	Connected bool
	// Connects/Disconnects count session transitions (a healthy probe has
	// Connects == Disconnects+1).
	Connects, Disconnects uint64
	// BatchesSent counts batch frames written (including resends);
	// BatchesResent the subset sent more than once; PointsOut the
	// measurements handed to the spool.
	BatchesSent, BatchesResent, PointsOut uint64
	// LastSeq is the newest assigned sequence number, AckedSeq the highest
	// the aggregator has acknowledged; Unacked = batches between them
	// still owed, SpoolBytes the on-disk footprint backing them.
	LastSeq, AckedSeq uint64
	Unacked           int
	SpoolBytes        int64
	// Dropped counts measurements shed at the subscription HWM while the
	// probe was at its unacked/spool bound or simply behind — the
	// backpressure loss class. DecodeErrors counts undecodable bus
	// messages; SpoolErrors counts spool I/O failures — appends that failed
	// (batch still sent, crash-safety degraded) and flush/close errors at
	// segment rotation; SpoolTornTails counts torn records tolerated when
	// the spool was last opened; CloseDropped counts measurements
	// discarded because Close sealed the spool before the collector's
	// final flush (run Close after Run has returned to keep it zero).
	Dropped, DecodeErrors, SpoolErrors, SpoolTornTails, CloseDropped uint64
}

// NewProbe opens (or recovers) the spool and subscribes to the bus's
// enriched topic. Unacked batches from a previous run are loaded and will
// be resent once Run connects.
func NewProbe(cfg ProbeConfig, bus *mq.Bus) (*Probe, error) {
	if cfg.Addr == "" || cfg.ID == "" || cfg.SpoolDir == "" {
		return nil, errors.New("fed: ProbeConfig requires Addr, ID and SpoolDir")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = 200 * time.Millisecond
	}
	sp, pending, err := openSpool(cfg.SpoolDir, cfg.MaxSegmentBytes)
	if err != nil {
		return nil, err
	}
	sub, err := bus.Subscribe(analytics.TopicEnriched, mq.DefaultHWM)
	if err != nil {
		sp.close()
		return nil, err
	}
	p := &Probe{cfg: cfg, sub: sub, sp: sp, pending: pending}
	p.cond = sync.NewCond(&p.mu)
	if sp.acked > 0 {
		p.ackedSeq.Store(sp.acked)
	}
	return p, nil
}

// Run operates the collector (bus → batches → spool) and the sender
// (spool → aggregator, with reconnect and replay) until ctx is cancelled.
// Once ctx is cancelled the collector still spools what is queued on its
// subscription: cancel it after the bus's publishers have stopped and the
// spool holds every measurement they published.
func (p *Probe) Run(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
		}
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer stop()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.collect(ctx)
	}()
	go func() {
		defer wg.Done()
		p.sendLoop(ctx)
	}()
	wg.Wait()
	return ctx.Err()
}

// collect drains the enriched subscription into batches. A full batch (or
// the flush ticker on a partial one) is encoded, spooled and queued.
func (p *Probe) collect(ctx context.Context) {
	var enc tsdb.RecordEncoder
	var e analytics.Enriched
	pts := make([]tsdb.Point, 0, p.cfg.BatchSize)
	t := time.NewTicker(p.cfg.FlushEvery)
	defer t.Stop()
	for {
		var msg mq.Message
		ok := true
		select {
		case <-t.C:
			if len(pts) > 0 {
				p.flush(ctx, &enc, pts)
				pts = pts[:0]
			}
			continue
		case msg, ok = <-p.sub.C():
		case <-ctx.Done():
			// Clean shutdown collects what is still queued, then spools
			// the partial batch, so nothing measured is lost; it is sent
			// after the next start.
			msg, ok = mq.Drain(ctx.Done(), p.sub.C())
		}
		if !ok {
			p.flush(ctx, &enc, pts)
			return
		}
		if err := analytics.UnmarshalEnriched(msg.Payload, &e); err != nil {
			p.decodeErrors.Add(1)
			continue
		}
		pts = append(pts, analytics.LatencyPoint(&e))
		if len(pts) >= p.cfg.BatchSize {
			p.flush(ctx, &enc, pts)
			pts = pts[:0]
		}
	}
}

// flush seals one batch: assign the next sequence number, append to the
// spool, queue for sending. Blocks (holding back the collector — the
// backpressure point) while the probe is at its unacked or spool bound.
// A batch whose record would exceed the wire frame bound splits in half
// (mirroring the WAL writer's logBatch): an oversized record would be
// rejected by the aggregator's parseBatch on every resend — a delivery
// livelock — and discarded as a torn tail by the spool scanner after a
// restart.
func (p *Probe) flush(ctx context.Context, enc *tsdb.RecordEncoder, pts []tsdb.Point) {
	if len(pts) == 0 {
		return
	}
	payload := enc.AppendRecord(make([]byte, 0, 32*len(pts)), pts)
	if len(payload) > maxRecordBytes && len(pts) > 1 {
		p.flush(ctx, enc, pts[:len(pts)/2])
		p.flush(ctx, enc, pts[len(pts)/2:])
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.closed && ctx.Err() == nil &&
		(len(p.pending) >= maxUnacked || p.sp.bytes > maxSpoolBytes) {
		p.cond.Wait()
	}
	if p.closed {
		// Close already sealed the spool (it won the race against the
		// collector's shutdown flush): these measurements are lost — like
		// any crash loses in-flight work — but never silently.
		p.closeDropped.Add(uint64(len(pts)))
		return
	}
	seq := p.sp.nextSeq
	// A failed spool write (disk trouble) does not fail the batch: it still
	// rides the in-memory queue — delivery continues, crash-safety is
	// degraded and the log's own error count (SpoolErrors) says so.
	_ = p.sp.append(seq, payload)
	p.sp.nextSeq = seq + 1
	p.pending = append(p.pending, spoolRec{seq: seq, payload: payload})
	p.pointsOut.Add(uint64(len(pts)))
	p.cond.Broadcast()
}

// sendLoop dials, replays unacked batches, then streams new ones,
// reconnecting with exponential backoff forever. The backoff resets only
// after a session actually reaches the streaming phase: a peer that
// accepts and then immediately fails the handshake (a mispointed
// -remote-write, a health-checked port) must not turn the loop into a
// zero-delay connection churn.
func (p *Probe) sendLoop(ctx context.Context) {
	backoff := dialBackoffMin
	for ctx.Err() == nil && !p.isClosed() {
		established := false
		if conn, err := net.DialTimeout("tcp", p.cfg.Addr, 5*time.Second); err == nil {
			before := p.connects.Load()
			if p.session(ctx, conn) {
				return
			}
			established = p.connects.Load() != before
		}
		if established {
			backoff = dialBackoffMin
			continue
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, dialBackoffMax)
	}
}

// session runs one connection: hello, ack-driven replay cursor reset, then
// the send stream. Returns true when the probe is shutting down.
func (p *Probe) session(ctx context.Context, conn net.Conn) (done bool) {
	defer conn.Close()
	if err := mq.WriteFrame(conn, mq.Message{Topic: topicHello,
		Payload: appendHello(nil, p.cfg.ID)}); err != nil {
		return false
	}
	// Acks are 8-byte frames read byte-at-a-time for the header: buffer
	// the read side so each is not several raw read(2) calls. Single
	// reader per conn (the hello ack here, then the ack goroutine).
	fr := mq.NewFrameReader(bufio.NewReaderSize(conn, 4<<10))
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	msg, err := fr.Read()
	conn.SetReadDeadline(time.Time{})
	if err != nil || msg.Topic != topicAck {
		return false
	}
	remote, err := parseSeq(msg.Payload)
	if err != nil {
		return false
	}
	// The aggregator's applied watermark prunes anything it already has
	// (heals a stale spool ACKED) and the send cursor rewinds to replay
	// the rest.
	p.ackTo(remote)
	p.mu.Lock()
	if p.closed || ctx.Err() != nil {
		p.mu.Unlock()
		return true
	}
	if remote+1 > p.sp.nextSeq {
		// The aggregator remembers this identity at a HIGHER sequence than
		// the spool knows (the spool was wiped or replaced under a reused
		// probe id): future batches must start above the watermark, or the
		// dedup would silently discard brand-new measurements as stale
		// resends.
		p.sp.nextSeq = remote + 1
	}
	p.conn = conn
	p.next = 0
	p.mu.Unlock()
	p.connected.Store(true)
	p.connects.Add(1)

	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		for {
			msg, err := fr.Read()
			if err != nil {
				break
			}
			if msg.Topic == topicAck {
				if seq, err := parseSeq(msg.Payload); err == nil {
					p.ackTo(seq)
				}
			}
		}
		// The read side died (peer hung up or severed): the stream may be
		// idle-parked in cond.Wait with everything sent and some of it
		// unacked, and no new batch may ever arrive to surface the write
		// error — so tear the session down from here: invalidate the
		// connection and wake the stream so the send loop reconnects and
		// replays the unacked tail.
		conn.Close()
		p.mu.Lock()
		if p.conn == conn {
			p.conn = nil
		}
		p.cond.Broadcast()
		p.mu.Unlock()
	}()

	p.stream(ctx, conn)

	conn.Close()
	<-ackDone
	p.mu.Lock()
	if p.conn == conn {
		p.conn = nil
	}
	done = p.closed || ctx.Err() != nil
	p.mu.Unlock()
	p.connected.Store(false)
	p.disconnects.Add(1)
	return done
}

// stream writes pending batches in order until the connection fails or the
// probe stops. Frames are buffered and flushed when the queue drains.
func (p *Probe) stream(ctx context.Context, conn net.Conn) {
	bw := bufio.NewWriterSize(conn, 64<<10)
	var frame []byte
	// idle reports "nothing to send and no reason to stop" — the FULL wait
	// predicate. It must be re-checked in whole after the unlocked Flush
	// window below: a shutdown or teardown Broadcast landing during Flush
	// would otherwise be missed and cond.Wait would sleep forever.
	// Caller holds p.mu.
	idle := func() bool {
		return p.next >= len(p.pending) && !p.closed && ctx.Err() == nil && p.conn == conn
	}
	for {
		p.mu.Lock()
		for idle() {
			// Queue empty: push buffered frames out before sleeping.
			p.mu.Unlock()
			if err := bw.Flush(); err != nil {
				return
			}
			p.mu.Lock()
			if idle() {
				p.cond.Wait()
			}
		}
		if p.closed || ctx.Err() != nil || p.conn != conn {
			p.mu.Unlock()
			bw.Flush()
			return
		}
		rec := p.pending[p.next]
		wasSent := rec.sent
		p.pending[p.next].sent = true
		p.next++
		p.mu.Unlock()
		if wasSent {
			p.resent.Add(1)
		}
		frame = appendBatch(frame[:0], rec.seq, rec.payload)
		if err := mq.WriteFrame(bw, mq.Message{Topic: topicBatch, Payload: frame}); err != nil {
			return
		}
		p.batchesSent.Add(1)
	}
}

// ackTo processes a cumulative ack: forget pending batches ≤ seq, advance
// the spool watermark, wake backpressured flushes.
func (p *Probe) ackTo(seq uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for n < len(p.pending) && p.pending[n].seq <= seq {
		n++
	}
	if n > 0 {
		p.pending = p.pending[n:]
		if p.next -= n; p.next < 0 {
			p.next = 0
		}
	}
	if seq > p.sp.acked {
		p.sp.ack(seq)
	}
	if cur := p.ackedSeq.Load(); seq > cur {
		p.ackedSeq.Store(seq)
	}
	if n > 0 {
		p.cond.Broadcast()
	}
}

func (p *Probe) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Stats snapshots the probe counters.
func (p *Probe) Stats() ProbeStats {
	p.mu.Lock()
	unacked := len(p.pending)
	spoolBytes := p.sp.bytes
	lastSeq := p.sp.nextSeq - 1
	torn := p.sp.tornTail
	p.mu.Unlock()
	return ProbeStats{
		Enabled:        true,
		ID:             p.cfg.ID,
		Addr:           p.cfg.Addr,
		Connected:      p.connected.Load(),
		Connects:       p.connects.Load(),
		Disconnects:    p.disconnects.Load(),
		BatchesSent:    p.batchesSent.Load(),
		BatchesResent:  p.resent.Load(),
		PointsOut:      p.pointsOut.Load(),
		LastSeq:        lastSeq,
		AckedSeq:       p.ackedSeq.Load(),
		Unacked:        unacked,
		SpoolBytes:     spoolBytes,
		Dropped:        p.sub.Dropped(),
		DecodeErrors:   p.decodeErrors.Load(),
		SpoolErrors:    p.sp.log.Stats().Errors,
		SpoolTornTails: torn,
		CloseDropped:   p.closeDropped.Load(),
	}
}

// Close releases the subscription and the spool (persisting the ack
// watermark). Call after Run has returned.
func (p *Probe) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	if p.conn != nil {
		p.conn.Close()
	}
	err := p.sp.close()
	p.cond.Broadcast()
	p.mu.Unlock()
	p.sub.Close()
	return err
}
