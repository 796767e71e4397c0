package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"ruru/internal/nic"
	"ruru/internal/pkt"
)

// Sink receives completed measurements. Emit is called from per-queue worker
// goroutines and must be safe for concurrent use; it should be fast or
// buffering (the mq stage provides a dropping publisher so the fast path
// never blocks, matching the ZeroMQ high-water-mark behaviour).
type Sink interface {
	Emit(m *Measurement)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(m *Measurement)

// Emit implements Sink.
func (f SinkFunc) Emit(m *Measurement) { f(m) }

// TSSink receives continuous RTT samples when timestamp tracking is
// enabled. Same contract as Sink: called from worker goroutines, must not
// block.
type TSSink interface {
	EmitTS(s *TSSample)
}

// TSSinkFunc adapts a function to the TSSink interface.
type TSSinkFunc func(s *TSSample)

// EmitTS implements TSSink.
func (f TSSinkFunc) EmitTS(s *TSSample) { f(s) }

// SeqSink receives sequence-matched RTT samples and loss/quality events
// when seq tracking is enabled. Same contract as Sink: called from worker
// goroutines, must not block.
type SeqSink interface {
	EmitSeq(s *SeqSample)
	EmitLoss(ev *LossEvent)
}

// The adaptive idle ladder a worker descends when polls come back empty:
// busy-spin first (a hot queue usually refills within nanoseconds), then
// cooperative yields, then sleeps of one fixed length. Any amount of
// traffic resets the ladder, so a loaded worker is always in the spin
// regime — the DPDK busy-poll behaviour.
//
// The sleep is one millisecond because that is the shortest sleep the Go
// runtime delivers whatever else the process is doing: an idle process
// serves its timers from epoll_wait, whose timeout has millisecond
// resolution, so a shorter time.Sleep returns after ≈1.1 ms when every P is
// idle and after tens of microseconds when one happens to be running, at
// 10–60 µs of scheduler and futex CPU either way. A lightly loaded
// worker's wake-ups per second, its CPU, and how finely it wakes the
// stages downstream would then follow the host's wake-up latency, not the
// load. A queue must hold one sleep's arrivals: 4096 slots cover 2 Mpps
// per queue.
const (
	pollSpin  = 64 // consecutive empty polls served by busy-spinning
	pollYield = 16 // runtime.Gosched rounds after spinning, before sleeping
	pollSleep = time.Millisecond
)

// idleWait advances the ladder by one empty poll.
func idleWait(idle int) {
	switch {
	case idle <= pollSpin:
		// busy-spin: retry immediately
	case idle <= pollSpin+pollYield:
		runtime.Gosched()
	default:
		time.Sleep(pollSleep)
	}
}

// EngineConfig configures an Engine.
type EngineConfig struct {
	// Port is the packet source. Required.
	Port *nic.Port
	// Sink receives measurements. Required.
	Sink Sink
	// Table configures each per-queue handshake table (Queue is
	// overridden per queue).
	Table TableConfig
	// Burst is the RxBurst size (default 64, DPDK's conventional burst).
	Burst int

	// TSSink, when non-nil, enables continuous RTT tracking from TCP
	// timestamp echoes (a per-queue TSTracker beside each handshake
	// table) and receives the samples. TSTable configures the trackers.
	TSSink  TSSink
	TSTable TSConfig

	// SeqSink, when non-nil, enables sequence-matched RTT and
	// retransmit/RTO/dupack loss classification (a per-queue SeqTracker
	// beside each handshake table) and receives samples and loss events.
	// SeqTable configures the trackers; when TSSink is also set and
	// SeqTable.OneDirection is false, SeqTable.DeferTS is forced on so a
	// timestamp-bearing flow is sampled by exactly one tracker.
	SeqSink  SeqSink
	SeqTable SeqConfig

	// NewAdmitter, when non-nil, enables the bounded-memory sketch tier:
	// it is called once per queue at construction and the returned
	// Admitter gates every exact-table insert on that queue (handshake
	// table plus both trackers) and observes every parsed TCP packet.
	// The returned value is handed to the queue's worker goroutine —
	// single-writer from then on, like the tables themselves.
	NewAdmitter func(queue int) Admitter
}

// Engine runs one measurement worker per RSS queue (the paper's "DPDK
// processing threads ... allocated on separate CPU cores").
type Engine struct {
	cfg    EngineConfig
	queues []queueState

	mu      sync.Mutex
	running bool
}

// queueState is all the per-flow state of one RSS queue, built once in
// NewEngine and owned by that queue's worker for as long as a Run lasts:
// flow records and the admitter charges they hold carry over from one Run
// to the next.
type queueState struct {
	table   *HandshakeTable
	ts      *TSTracker  // nil unless EngineConfig.TSSink is set
	seq     *SeqTracker // nil unless EngineConfig.SeqSink is set
	adm     Admitter    // nil unless EngineConfig.NewAdmitter is set
	seed    uint64      // keys FlowHash when there is no admitter to hash
	touched uint32      // keeps the trackers' home-slot loads (Touch)
	cell    statsCell
}

// statsCell holds the stats snapshot a worker publishes once per burst, so
// monitors can read live table counters without racing the single-writer
// hot path. The mutex is uncontended in steady state and the cost is
// amortized over a whole burst.
type statsCell struct {
	mu   sync.Mutex
	snap EngineStats
}

// EngineStats is every per-queue counter block. The tracker and sketch
// blocks stay zero when the corresponding EngineConfig field is unset.
type EngineStats struct {
	Table  TableStats
	TS     TSStats
	Seq    SeqStats
	Sketch SketchStats
}

// NewEngine validates cfg and builds the per-queue state.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.Port == nil {
		return nil, errors.New("core: EngineConfig.Port is required")
	}
	if cfg.Sink == nil {
		return nil, errors.New("core: EngineConfig.Sink is required")
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 64
	}
	e := &Engine{cfg: cfg, queues: make([]queueState, cfg.Port.NumQueues())}
	for q := range e.queues {
		qs := &e.queues[q]
		qs.seed = rand.Uint64()
		if cfg.NewAdmitter != nil {
			if qs.adm = cfg.NewAdmitter(q); qs.adm == nil {
				return nil, errors.New("core: EngineConfig.NewAdmitter returned nil")
			}
		}
		tc := cfg.Table
		tc.Queue, tc.Admit = q, qs.adm
		qs.table = NewHandshakeTable(tc)
		if cfg.TSSink != nil {
			tc := cfg.TSTable
			tc.Queue, tc.Admit = q, qs.adm
			qs.ts = NewTSTracker(tc)
		}
		if cfg.SeqSink != nil {
			sc := cfg.SeqTable
			sc.Queue, sc.Admit = q, qs.adm
			if qs.ts != nil && !sc.OneDirection {
				sc.DeferTS = true
			}
			qs.seq = NewSeqTracker(sc)
		}
	}
	return e, nil
}

// Stats aggregates every queue's counter blocks. Safe to call from any
// goroutine at any time: it reads the snapshots each worker publishes at
// burst boundaries (so values can trail the hot path by up to one burst).
func (e *Engine) Stats() EngineStats {
	var total EngineStats
	for q := range e.queues {
		cell := &e.queues[q].cell
		cell.mu.Lock()
		s := cell.snap
		cell.mu.Unlock()
		total.Table.Add(s.Table)
		total.TS.add(s.TS)
		total.Seq.add(s.Seq)
		total.Sketch.add(s.Sketch)
	}
	return total
}

// Run polls every queue until ctx is cancelled. It blocks; cancel the
// context to stop. Packets still queued at cancellation are drained.
func (e *Engine) Run(ctx context.Context) error {
	e.mu.Lock()
	if e.running {
		e.mu.Unlock()
		return errors.New("core: engine already running")
	}
	e.running = true
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.running = false
		e.mu.Unlock()
	}()

	var wg sync.WaitGroup
	for q := range e.queues {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			e.runQueue(ctx, q)
		}(q)
	}
	wg.Wait()
	return ctx.Err()
}

// runQueue is the per-core poll loop: RxBurst → parse → flow hash →
// handshake table (and, when enabled, the timestamp and sequence
// trackers). The NIC's Toeplitz value chose the queue; the tables are
// indexed by the queue's seeded FlowHash, computed once per TCP packet.
func (e *Engine) runQueue(ctx context.Context, q int) {
	var (
		parser pkt.Parser
		sum    pkt.Summary
		m      Measurement
		ts     TSSample
		ss     SeqSample
		lev    LossEvent
		qs     = &e.queues[q]
		bufs   = make([]*nic.Buf, e.cfg.Burst)
	)
	processBurst := func(n int) {
		for i := 0; i < n; i++ {
			b := bufs[i]
			if err := parser.Parse(b.Bytes(), &sum); err == nil && sum.IsTCP() {
				var h uint64
				if qs.adm != nil {
					// The sketch observes every TCP packet before the
					// tables rule on it, so an Admit for this packet's
					// flow sees its volume already accounted; the hash
					// it returns is the tables' index too.
					h = qs.adm.Observe(&sum)
				} else {
					h = FlowHash(qs.seed, &sum)
				}
				// One hash for all the tables: touch the trackers' home
				// slots before the handshake table probes its own, so
				// the tables' cache misses overlap.
				hash := uint32(h)
				if qs.ts != nil {
					qs.touched ^= qs.ts.Touch(hash)
				}
				if qs.seq != nil {
					qs.touched ^= qs.seq.Touch(hash)
				}
				if qs.table.Process(&sum, b.Timestamp, hash, &m) {
					e.cfg.Sink.Emit(&m)
				}
				if qs.ts != nil && qs.ts.Process(&sum, b.Timestamp, hash, &ts) {
					e.cfg.TSSink.EmitTS(&ts)
				}
				if qs.seq != nil {
					gotSample, gotLoss := qs.seq.Process(&sum, b.Timestamp, hash, &ss, &lev)
					if gotSample {
						e.cfg.SeqSink.EmitSeq(&ss)
					}
					if gotLoss {
						e.cfg.SeqSink.EmitLoss(&lev)
					}
				}
			}
		}
		nic.FreeBurst(bufs[:n]) // the whole burst home under one pool lock
	}
	// publish copies the table and tracker counters into this queue's
	// monitoring cell: one uncontended lock per burst instead of atomics
	// per packet.
	publish := func() {
		snap := EngineStats{Table: qs.table.Stats()} // we are the tables' single writer
		if qs.ts != nil {
			snap.TS = qs.ts.Stats()
		}
		if qs.seq != nil {
			snap.Seq = qs.seq.Stats()
		}
		if qs.adm != nil {
			snap.Sketch = qs.adm.Stats()
		}
		qs.cell.mu.Lock()
		qs.cell.snap = snap
		qs.cell.mu.Unlock()
		if qs.adm != nil {
			// Refresh the heavy-hitter snapshot readers consume (the tier
			// throttles the copy internally).
			qs.adm.Publish(false)
		}
	}
	defer func() {
		if qs.adm != nil {
			qs.adm.Publish(true) // final unthrottled snapshot for readers
		}
		publish()
	}()
	idle := 0
	for {
		n, err := e.cfg.Port.RxBurst(q, bufs)
		if err != nil {
			return
		}
		processBurst(n)
		if n > 0 {
			publish()
			idle = 0
			continue
		}
		select {
		case <-ctx.Done():
			// Final drain: whatever was enqueued before cancel.
			for {
				n, _ := e.cfg.Port.RxBurst(q, bufs)
				if n == 0 {
					return
				}
				processBurst(n)
			}
		default:
			idle++
			idleWait(idle)
		}
	}
}
