package fed

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ruru/internal/mq"
	"ruru/internal/tsdb"
)

// probeTag is the tag key every ingested series is stamped with. Queries
// filter and group on it like any tag: where=probe:<id>, group_by=probe.
const probeTag = "probe"

// AggConfig configures the aggregator endpoint.
type AggConfig struct {
	// Listen is the TCP address probes dial (host:port, port 0 picks one).
	Listen string
	// MaxProbes caps DISTINCT probe identities (default 1024). The
	// protocol is unauthenticated — deploy the listener on a trusted
	// network — so without a cap any peer could grow the registry, the
	// stats payload and the DB's probe-tag cardinality without bound;
	// hellos introducing an identity beyond the cap are rejected and
	// counted in AggStats.Rejected.
	MaxProbes int
}

// Aggregator accepts remote-write streams from N probes and ingests every
// batch — tagged probe=<id> — through the owning DB's normal
// write→rollup→WAL path, so durability and the query planner apply to
// federated data for free. Batches are deduplicated by per-probe sequence
// number and acknowledged only after the write returns: apply-exactly-once,
// ack-after-apply (see the package doc for the full contract).
type Aggregator struct {
	cfg AggConfig
	db  *tsdb.DB
	ln  net.Listener

	mu     sync.Mutex
	probes map[string]*aggProbe
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	batches      atomic.Uint64
	points       atomic.Uint64
	dupBatches   atomic.Uint64
	badFrames    atomic.Uint64
	decodeErrors atomic.Uint64
	writeErrors  atomic.Uint64
	rejected     atomic.Uint64
}

// aggProbe is the per-probe federation state. lastApplied is the dedup
// watermark: a batch applies iff its seq exceeds it, and the cumulative
// ack always reports it. mu serializes apply+advance so two connections
// claiming the same probe id cannot interleave.
type aggProbe struct {
	id string

	mu          sync.Mutex
	lastApplied uint64

	// Ref-path write scratch, guarded by mu (applyBatch holds it through
	// decode and apply): interned TSDB handles cached per decoded
	// (name, tags, field-keys) shape — the probe tag is implicit since the
	// cache itself is per-probe — plus reusable batch buffers, so the
	// steady-state apply path allocates nothing per point.
	refs   map[string]tsdb.SeriesRef
	keyBuf []byte
	rpts   []tsdb.RefPoint
	vals   []float64
	offs   []int

	conns      atomic.Int64
	lastRecvNs atomic.Int64
	batches    atomic.Uint64
	points     atomic.Uint64
	dupBatches atomic.Uint64
}

// ProbeAggStats is one probe's view in AggStats.
type ProbeAggStats struct {
	ID string
	// Connected reports a live connection; Conns the exact count (a
	// restarting probe can briefly hold two).
	Connected bool
	Conns     int64
	// LastSeq is the highest applied (= acked) sequence number.
	LastSeq uint64
	// Batches/Points count applied work; DupBatches counts resends the
	// dedup discarded (at-least-once retries that exactly-once absorbed).
	Batches, Points, DupBatches uint64
	// LagNs is the time since the last frame from this probe (-1 before
	// the first one) — the liveness/lag signal.
	LagNs int64
}

// AggStats snapshots the aggregator: totals plus per-probe liveness, lag
// and dedup counters, sorted by probe id.
type AggStats struct {
	Enabled bool   `json:",omitempty"`
	Addr    string `json:",omitempty"`
	// Batches/Points count work accepted and written through the DB (a
	// point behind the retention horizon is accepted here and surfaces in
	// the stats' top-level DBDropped, not in any fed counter); DupBatches
	// counts batches dropped by sequence dedup; BadFrames malformed or
	// CRC-failing frames (connection dropped, probe resends); DecodeErrors
	// CRC-valid records — or individual points with no fields or a repeated
	// field key — that could not become writable points (counted, skipped
	// and acked: resending cannot fix them); WriteErrors batches refused by
	// a closing DB; Rejected hellos refused at the MaxProbes
	// distinct-identity cap.
	Batches, Points, DupBatches, BadFrames, DecodeErrors, WriteErrors, Rejected uint64
	Probes                                                                      []ProbeAggStats
}

// NewAggregator binds the listener and starts accepting probes. The
// returned Aggregator serves until Close.
func NewAggregator(cfg AggConfig, db *tsdb.DB) (*Aggregator, error) {
	if cfg.Listen == "" {
		return nil, errors.New("fed: AggConfig.Listen is required")
	}
	if cfg.MaxProbes <= 0 {
		cfg.MaxProbes = 1024
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	a := &Aggregator{cfg: cfg, db: db, ln: ln,
		probes: make(map[string]*aggProbe), conns: make(map[net.Conn]struct{})}
	a.wg.Add(1)
	go a.acceptLoop()
	return a, nil
}

// Addr returns the bound listen address.
func (a *Aggregator) Addr() net.Addr { return a.ln.Addr() }

func (a *Aggregator) acceptLoop() {
	defer a.wg.Done()
	for {
		conn, err := a.ln.Accept()
		if err != nil {
			return
		}
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			conn.Close()
			return
		}
		a.conns[conn] = struct{}{}
		a.mu.Unlock()
		a.wg.Add(1)
		go a.serve(conn)
	}
}

// probeFor returns (and on first sight registers) the probe's state, or
// nil when registering would exceed the MaxProbes identity cap.
func (a *Aggregator) probeFor(id string) *aggProbe {
	a.mu.Lock()
	defer a.mu.Unlock()
	ps := a.probes[id]
	if ps == nil {
		if len(a.probes) >= a.cfg.MaxProbes {
			return nil
		}
		ps = &aggProbe{id: id, refs: make(map[string]tsdb.SeriesRef)}
		ps.lastRecvNs.Store(-1)
		a.probes[id] = ps
	}
	return ps
}

// serve runs one probe connection: hello → ack(lastApplied) → batch/ack
// stream. Any protocol violation drops the connection; the probe's spool
// replay makes that safe.
func (a *Aggregator) serve(conn net.Conn) {
	defer a.wg.Done()
	defer func() {
		a.mu.Lock()
		delete(a.conns, conn)
		a.mu.Unlock()
		conn.Close()
	}()
	// Buffer the read side: frame headers are decoded byte-at-a-time, and
	// on the raw conn each uvarint byte would be its own read(2). One
	// reader per conn, so buffering is safe.
	fr := mq.NewFrameReader(bufio.NewReaderSize(conn, 32<<10))
	conn.SetReadDeadline(time.Now().Add(15 * time.Second))
	msg, err := fr.Read()
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		return // peer hung up before introducing itself: not a protocol error
	}
	if msg.Topic != topicHello {
		a.badFrames.Add(1)
		return
	}
	id, err := parseHello(msg.Payload)
	if err != nil {
		a.badFrames.Add(1)
		return
	}
	ps := a.probeFor(id)
	if ps == nil {
		a.rejected.Add(1)
		return
	}
	ps.conns.Add(1)
	defer ps.conns.Add(-1)

	ps.mu.Lock()
	last := ps.lastApplied
	ps.mu.Unlock()
	if err := mq.WriteFrame(conn, mq.Message{Topic: topicAck,
		Payload: appendSeq(nil, last)}); err != nil {
		return
	}

	var ackBuf []byte
	for {
		msg, err := fr.Read()
		if err != nil {
			return
		}
		ps.lastRecvNs.Store(time.Now().UnixNano())
		if msg.Topic != topicBatch {
			continue // future protocol extensions are ignorable
		}
		seq, record, err := parseBatch(msg.Payload)
		if err != nil {
			// A framing/CRC failure poisons the stream position: drop the
			// connection and let spool replay retransmit cleanly.
			a.badFrames.Add(1)
			return
		}
		ack, ok := a.applyBatch(ps, seq, record)
		if !ok {
			return
		}
		ackBuf = appendSeq(ackBuf[:0], ack)
		if err := mq.WriteFrame(conn, mq.Message{Topic: topicAck, Payload: ackBuf}); err != nil {
			return
		}
	}
}

// applyBatch applies one batch exactly once and returns the cumulative ack
// to send. ok=false means the DB refused the write (shutdown): drop the
// connection without acking so the probe retains and resends the batch.
func (a *Aggregator) applyBatch(ps *aggProbe, seq uint64, record []byte) (ack uint64, ok bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if seq <= ps.lastApplied {
		ps.dupBatches.Add(1)
		a.dupBatches.Add(1)
		return ps.lastApplied, true
	}
	rpts := ps.rpts[:0]
	vals := ps.vals[:0]
	offs := ps.offs[:0]
	dropped := 0
	derr := tsdb.DecodeRecord(record, func(p *tsdb.Point) error {
		ref, err := a.refFor(ps, p)
		if errors.Is(err, tsdb.ErrClosedDB) {
			return err
		}
		if err != nil {
			// A fieldless point, one with duplicate field keys or one with
			// an identifier no checkpoint could hold, such as a raw newline
			// in a tag (craftable on the wire, never produced by a real
			// probe), is refused by the DB deterministically — and since
			// a refused write is handled as transient (no ack, resend), it
			// would livelock the stream. Drop and count it here instead.
			dropped++
			return nil
		}
		// Values into the shared arena, Vals subslices fixed up below once
		// the arena stops moving.
		offs = append(offs, len(vals))
		for _, f := range p.Fields {
			vals = append(vals, f.Value)
		}
		rpts = append(rpts, tsdb.RefPoint{Ref: ref, Time: p.Time})
		return nil
	})
	offs = append(offs, len(vals))
	for i := range rpts {
		rpts[i].Vals = vals[offs[i]:offs[i+1]:offs[i+1]]
	}
	if dropped > 0 {
		a.decodeErrors.Add(uint64(dropped))
	}
	ps.rpts, ps.vals, ps.offs = rpts, vals, offs
	// ErrClosedDB (shutdown) is the only way Ref above or the write below
	// can fail: transient, so drop the connection without acking and let
	// the probe resend to the restarted aggregator.
	if errors.Is(derr, tsdb.ErrClosedDB) {
		a.writeErrors.Add(1)
		return 0, false
	}
	if derr != nil {
		// CRC said the bytes arrived intact, so this is an encoding the
		// probe will resend identically forever: count it, skip it, ack it
		// — a visible loss beats a retry livelock.
		a.decodeErrors.Add(1)
		ps.lastApplied = seq
		return seq, true
	}
	// With err == nil every point was handled — stored, or dropped by
	// retention and counted in the DB's own dropped counter (surfaced as
	// DBDropped in /api/stats), so Points below means "accepted", not
	// "queryable".
	if _, err := a.db.WriteBatchRef(rpts); err != nil {
		a.writeErrors.Add(1)
		return 0, false
	}
	n := uint64(len(rpts))
	ps.lastApplied = seq
	ps.batches.Add(1)
	a.batches.Add(1)
	ps.points.Add(n)
	a.points.Add(n)
	return seq, true
}

// refFor resolves a decoded point's interned TSDB handle from the probe's
// cache, creating it on first sight of the shape. It fails with the DB's
// Ref error: a shape no write accepts (no fields, duplicate field keys, an
// identifier Snapshot could not write back), or ErrClosedDB. Caller holds
// ps.mu.
func (a *Aggregator) refFor(ps *aggProbe, p *tsdb.Point) (tsdb.SeriesRef, error) {
	// Cache key: name, tag count, tags, field keys — all length-prefixed,
	// so distinct shapes can never collide.
	b := ps.keyBuf[:0]
	b = appendLenStr(b, p.Name)
	b = binary.AppendUvarint(b, uint64(len(p.Tags)))
	for _, t := range p.Tags {
		b = appendLenStr(b, t.Key)
		b = appendLenStr(b, t.Value)
	}
	for _, f := range p.Fields {
		b = appendLenStr(b, f.Key)
	}
	ps.keyBuf = b
	if ref, ok := ps.refs[string(b)]; ok {
		return ref, nil
	}
	tags := make([]tsdb.Tag, 0, len(p.Tags)+1)
	tags = append(append(tags, p.Tags...), tsdb.Tag{Key: probeTag, Value: ps.id})
	fields := make([]string, len(p.Fields))
	for i, f := range p.Fields {
		fields[i] = f.Key
	}
	ref, err := a.db.Ref(p.Name, tags, fields...)
	if err != nil {
		return 0, err
	}
	ps.refs[string(b)] = ref
	return ref, nil
}

func appendLenStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Stats snapshots the aggregator counters.
func (a *Aggregator) Stats() AggStats {
	st := AggStats{
		Enabled:      true,
		Addr:         a.ln.Addr().String(),
		Batches:      a.batches.Load(),
		Points:       a.points.Load(),
		DupBatches:   a.dupBatches.Load(),
		BadFrames:    a.badFrames.Load(),
		DecodeErrors: a.decodeErrors.Load(),
		WriteErrors:  a.writeErrors.Load(),
		Rejected:     a.rejected.Load(),
	}
	now := time.Now().UnixNano()
	// Snapshot the registry under a.mu, then read per-probe state lock by
	// lock: ps.mu must never be taken while holding a.mu (the documented
	// non-nesting invariant), and a probe mid-WriteBatch must not stall a
	// stats scrape of the whole fleet.
	a.mu.Lock()
	probes := make([]*aggProbe, 0, len(a.probes))
	for _, ps := range a.probes {
		probes = append(probes, ps)
	}
	a.mu.Unlock()
	for _, ps := range probes {
		ps.mu.Lock()
		last := ps.lastApplied
		ps.mu.Unlock()
		lag := int64(-1)
		if recv := ps.lastRecvNs.Load(); recv > 0 {
			lag = now - recv
		}
		conns := ps.conns.Load()
		st.Probes = append(st.Probes, ProbeAggStats{
			ID:         ps.id,
			Connected:  conns > 0,
			Conns:      conns,
			LastSeq:    last,
			Batches:    ps.batches.Load(),
			Points:     ps.points.Load(),
			DupBatches: ps.dupBatches.Load(),
			LagNs:      lag,
		})
	}
	sort.Slice(st.Probes, func(i, j int) bool { return st.Probes[i].ID < st.Probes[j].ID })
	return st
}

// DropConnections severs every live probe connection (they reconnect and
// replay) — the fault-injection hook the soak test drives; harmless in
// production.
func (a *Aggregator) DropConnections() {
	a.mu.Lock()
	for c := range a.conns {
		c.Close()
	}
	a.mu.Unlock()
}

// Close stops accepting, drops live connections and waits for the serving
// goroutines. The DB is not closed (the aggregator does not own it).
func (a *Aggregator) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	err := a.ln.Close()
	for c := range a.conns {
		c.Close()
	}
	a.mu.Unlock()
	a.wg.Wait()
	return err
}
