package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ruru/internal/analytics"
	"ruru/internal/core"
	"ruru/internal/mq"
	"ruru/internal/nic"
	"ruru/internal/pkt"
	"ruru/internal/ring"
	"ruru/internal/rss"
	"ruru/internal/ruru"
	"ruru/internal/sketch"
	"ruru/internal/tsdb"
	"ruru/internal/web"
	"ruru/internal/ws"
)

// The traced pass. The pipeline has no spans of its own yet, so the harness
// plays its glue on one goroutine: every layer's public function is fed the
// previous layer's real output for the workload's trace, stage-major within
// a 64-packet burst (a 64-measurement batch past the engine), with one span
// per layer per burst taken around the call. A layer's cost here is what it
// costs alone and warm; what the assembled pipeline pays beyond the sum —
// hops, channels, scheduling, idle polling, collection — is
// ruru.glue_ns_per_pkt.

type stage uint8

const (
	stBurst stage = iota // root: one burst of packets
	stBatch              // root: one batch of measurements
	stInject
	stRx
	stParse
	stHash
	stRing
	stSketch
	stHandshake
	stTSRTT
	stSeqRTT
	stAllTrackers
	stWrite
	stCodec
	stGeo
	stEnrich
	stPublish
	stSink
	stFrameJSON
	stBroadcast
	stWriteRef
	stWriteRefWAL
	nStages
)

var stageNames = [nStages]string{
	"bench.burst", "bench.batch", "nic.inject", "nic.rx", "pkt.parse", "rss.hash",
	"ring.burst", "sketch.observe", "core.handshake", "core.tsrtt", "core.seqrtt",
	"core.all_trackers", "tsdb.write", "analytics.codec", "geo.lookup",
	"analytics.enrich", "mq.publish", "ruru.sink", "ruru.frame_json", "ws.broadcast",
	"tsdb.write_ref", "tsdb.write_ref_wal",
}

// span is one timed call into a layer: times are ns since the pass began,
// parent the index of the enclosing root span, id the burst or batch number
// every span of one burst shares, work the units handled inside.
type span struct {
	stage      stage
	start, end int64
	parent     int32
	id         int32
	work       int32
}

// maxSpans bounds what is kept for the span file (40 bytes each); totals
// keep accumulating past it.
const maxSpans = 1 << 20

type tracer struct {
	t0 time.Time
	// on: spans are taken. Off, the same work is done with no clock reads
	// inside; the pass alternates between the two every chunkBursts bursts,
	// and the difference in time per packet is trace.overhead_frac.
	on         bool
	onT, offT  time.Duration
	onN, offN  int64
	chunkStart time.Time
	chunkPkts  int64
	spans      []span
	// ns is self time: a leaf's whole span, a root's span minus its leaves.
	ns, work [nStages]int64
	root     int32
	rootKids int64
}

// chunkBursts is how many bursts run between switching spans on and off:
// long enough to amortize the two clock reads around a chunk, short enough
// that both halves see the same tables, caches and neighbours.
const chunkBursts = 256

// flip ends the current chunk, booking its wall time, and starts the next
// with spans switched.
func (t *tracer) flip() {
	now := time.Now()
	if !t.chunkStart.IsZero() {
		if t.on {
			t.onT, t.onN = t.onT+now.Sub(t.chunkStart), t.onN+t.chunkPkts
		} else {
			t.offT, t.offN = t.offT+now.Sub(t.chunkStart), t.offN+t.chunkPkts
		}
		t.on = !t.on
	}
	t.chunkStart, t.chunkPkts = now, 0
}

func (t *tracer) now() int64 {
	if !t.on {
		return 0
	}
	return int64(time.Since(t.t0))
}

// open starts a root span.
func (t *tracer) open(s stage, id int32) int64 {
	t.root = int32(len(t.spans))
	t.rootKids = 0
	start := t.now()
	if t.on && len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{stage: s, start: start, parent: -1, id: id})
	} else {
		t.root = -1
	}
	return start
}

// close ends the root span opened last.
func (t *tracer) close(s stage, start int64, work int) {
	if !t.on {
		return
	}
	end := t.now()
	t.ns[s] += end - start - t.rootKids
	t.work[s] += int64(work)
	if t.root >= 0 {
		t.spans[t.root].end = end
		t.spans[t.root].work = int32(work)
	}
}

// leaf records a finished call into a layer under the open root.
func (t *tracer) leaf(s stage, start int64, id int32, work int) {
	if !t.on {
		return
	}
	end := t.now()
	t.ns[s] += end - start
	t.work[s] += int64(work)
	t.rootKids += end - start
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{stage: s, start: start, end: end, parent: t.root, id: id, work: int32(work)})
	}
}

func (t *tracer) per(s stage) float64 {
	if t.work[s] == 0 {
		return 0
	}
	return float64(t.ns[s]) / float64(t.work[s])
}

// stager holds one instance of every layer, wired by hand.
type stager struct {
	r   *rig
	tr  *tracer
	dir string

	// Packet path.
	pool   *nic.Mempool
	port   *nic.Port
	hasher *rss.Hasher
	parser pkt.Parser
	loop   *ring.Ring[*nic.Buf]
	tiers  []*sketch.FlowTier
	tables []*core.HandshakeTable
	ts     []*core.TSTracker
	seq    []*core.SeqTracker
	// A second set, driven packet-major, for core.all_trackers.
	tables2 []*core.HandshakeTable
	ts2     []*core.TSTracker
	seq2    []*core.SeqTracker

	frames []nic.Frame
	bufs   []*nic.Buf
	popped []*nic.Buf
	queue  []int
	sums   []pkt.Summary
	tcp    []bool

	// Measurement path.
	pending   []core.Measurement
	tsOut     []core.TSSample // the trackers' output for one burst
	seqOut    []core.SeqSample
	lossOut   []core.LossEvent
	points    []tsdb.Point // the same in the pipeline's point shape
	enrBus    *mq.Bus
	enrOut    *mq.Subscription
	enricher  *analytics.Enricher
	loopBus   *mq.Bus
	loopSub   *mq.Subscription
	sink      *ruru.Pipeline
	sinkSrv   *httptest.Server
	sinkN     uint64
	hub       *ws.Hub
	hubSrv    *httptest.Server
	hubClient *viewer
	dbMem     *tsdb.DB
	dbWAL     *tsdb.DB
	walOpts   tsdb.Options
	refsMem   map[string]tsdb.SeriesRef
	refsWAL   map[string]tsdb.SeriesRef
	keyBuf    []byte
	rpts      []tsdb.RefPoint
	vals      []float64
	stop      context.CancelFunc
	stopped   []<-chan struct{}
	bursts    int
	batches   int32
	enriched  []analytics.Enriched
	payloads  [][]byte

	// Exact counts, for the smoke test's comparison with Stats().
	packets, tcpPackets, measurements, pointsN uint64
}

const stageQueues = 4

func newStager(r *rig) (*stager, error) {
	w := r.rc.wl
	s := &stager{r: r, tr: &tracer{}, hasher: rss.NewSymmetric(),
		refsMem: map[string]tsdb.SeriesRef{}, refsWAL: map[string]tsdb.SeriesRef{}}
	s.dir = filepath.Join(r.rc.outDir, fmt.Sprintf("tmp-%d-stages", os.Getpid()))
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	fail := func(err error) (*stager, error) { return nil, errors.Join(err, s.tearDown()) }

	s.pool = nic.NewMempool(16384, 2048)
	if s.port, err = nic.NewPort(nic.PortConfig{Queues: stageQueues, QueueDepth: 4096, Pool: s.pool}); err != nil {
		return fail(err)
	}
	s.loop = ring.MustNew[*nic.Buf](4096)
	for q := 0; q < stageQueues; q++ {
		var adm core.Admitter
		if w.trackers {
			tier, err := sketch.NewFlowTier(sketch.TierConfig{BudgetBytes: flowTableCap / stageQueues, Queue: q})
			if err != nil {
				return fail(err)
			}
			s.tiers = append(s.tiers, tier)
			adm = tier
		}
		s.tables = append(s.tables, core.NewHandshakeTable(core.TableConfig{Capacity: 1 << 16, Queue: q, Admit: adm}))
		s.tables2 = append(s.tables2, core.NewHandshakeTable(core.TableConfig{Capacity: 1 << 16, Queue: q}))
		if w.trackers {
			s.ts = append(s.ts, core.NewTSTracker(core.TSConfig{Capacity: 1 << 16, Queue: q, Admit: adm}))
			s.seq = append(s.seq, core.NewSeqTracker(core.SeqConfig{Capacity: 1 << 16, Queue: q, Admit: adm, DeferTS: true}))
			s.ts2 = append(s.ts2, core.NewTSTracker(core.TSConfig{Capacity: 1 << 16, Queue: q}))
			s.seq2 = append(s.seq2, core.NewSeqTracker(core.SeqConfig{Capacity: 1 << 16, Queue: q, DeferTS: true}))
		}
	}
	s.bufs = make([]*nic.Buf, burst)
	s.popped = make([]*nic.Buf, burst)
	s.queue = make([]int, burst)
	s.sums = make([]pkt.Summary, burst)
	s.tcp = make([]bool, burst)

	ctx, cancel := context.WithCancel(context.Background())
	s.stop = cancel
	goRun := func(run func(context.Context) error) {
		done := make(chan struct{})
		s.stopped = append(s.stopped, done)
		go func() {
			defer close(done)
			_ = run(ctx) // returns ctx.Err() by contract
		}()
	}

	s.enrBus = mq.NewBus()
	if s.enrOut, err = s.enrBus.Subscribe(analytics.TopicEnriched, 1<<12); err != nil {
		return fail(err)
	}
	if s.enricher, err = analytics.NewEnricher(analytics.Config{DB: r.world.DB(), Bus: s.enrBus, Workers: 4, HWM: 1 << 12}); err != nil {
		return fail(err)
	}
	goRun(s.enricher.Run)

	s.loopBus = mq.NewBus()
	if s.loopSub, err = s.loopBus.Subscribe(analytics.TopicRaw, 1<<12); err != nil {
		return fail(err)
	}

	if s.sink, err = ruru.New(w.pipelineConfig(r.world, filepath.Join(s.dir, "sink"))); err != nil {
		return fail(err)
	}
	goRun(s.sink.Run)
	s.sinkSrv = httptest.NewServer(web.NewServer(s.sink))

	s.hub = ws.NewHub(0)
	s.hubSrv = httptest.NewServer(s.hub)
	if s.hubClient, err = dialViewer(s.hubSrv.URL); err != nil { // the hub serves any path
		return fail(err)
	}
	for s.hub.LiveClients() == 0 {
		time.Sleep(time.Millisecond)
	}

	s.dbMem = tsdb.Open(tsdb.Options{Stripes: 8, Rollups: tsdb.DefaultRollups()})
	s.walOpts = tsdb.Options{Stripes: 8, Rollups: tsdb.DefaultRollups(), QueryCache: 16 << 20,
		Persist: &tsdb.PersistOptions{Dir: filepath.Join(s.dir, "wal"), Fsync: tsdb.FsyncInterval, CheckpointEvery: -1}}
	if s.dbWAL, err = tsdb.OpenDB(s.walOpts); err != nil {
		return fail(err)
	}
	return s, nil
}

func (s *stager) tearDown() error {
	var err error
	if s.hubClient != nil {
		s.hubClient.close()
	}
	if s.hubSrv != nil {
		s.hub.Close()
		s.hubSrv.Close()
	}
	if s.sinkSrv != nil {
		s.sinkSrv.Close()
	}
	if s.stop != nil {
		s.stop()
	}
	if s.enrBus != nil {
		s.enrBus.Close()
	}
	if s.loopBus != nil {
		s.loopBus.Close()
	}
	if s.sink != nil {
		s.sink.Port.Stop()
		err = errors.Join(err, s.sink.Close())
	}
	for _, done := range s.stopped {
		<-done
	}
	if s.dbMem != nil {
		err = errors.Join(err, s.dbMem.Close())
	}
	if s.dbWAL != nil {
		err = errors.Join(err, s.dbWAL.Close())
	}
	return errors.Join(err, os.RemoveAll(s.dir))
}

// lap plays one lap of the trace through every layer.
func (s *stager) lap(lap int) error {
	pkts := s.r.tr.pkts
	for i := 0; i < len(pkts); i += burst {
		if s.bursts%chunkBursts == 0 {
			s.tr.flip()
		}
		s.bursts++
		j := min(i+burst, len(pkts))
		if err := s.burst(i, j, lap); err != nil {
			return err
		}
		s.tr.chunkPkts += int64(j - i)
	}
	// A partial batch would leave the lap's last measurements for the
	// next lap's spans; flush it.
	return s.batch()
}

func (s *stager) burst(i, j, lap int) error {
	t := s.tr
	id := int32(lap*(len(s.r.tr.pkts)/burst+1) + i/burst)
	s.frames = s.r.tr.fill(s.frames[:0], i, j, lap, s.r.base)
	root := t.open(stBurst, id)

	at := t.now()
	if got := s.port.InjectBurst(s.frames); got != j-i {
		return fmt.Errorf("traced port took %d of %d frames", got, j-i)
	}
	t.leaf(stInject, at, id, j-i)

	at = t.now()
	n := 0
	for q := 0; q < stageQueues; q++ {
		k, err := s.port.RxBurst(q, s.bufs[n:])
		if err != nil {
			return err
		}
		for ; k > 0; k-- {
			s.queue[n] = q
			n++
		}
	}
	t.leaf(stRx, at, id, n)
	if n != j-i {
		return fmt.Errorf("traced port returned %d of %d frames", n, j-i)
	}
	s.packets += uint64(n)

	at = t.now()
	ntcp := 0
	for k := 0; k < n; k++ {
		s.tcp[k] = s.parser.Parse(s.bufs[k].Bytes(), &s.sums[k]) == nil && s.sums[k].IsTCP()
		if s.tcp[k] {
			ntcp++
		}
	}
	t.leaf(stParse, at, id, n)
	s.tcpPackets += uint64(ntcp)

	at = t.now()
	for k := 0; k < n; k++ {
		if sum := &s.sums[k]; s.tcp[k] {
			sinkHash = s.hasher.HashTuple(sum.Src(), sum.Dst(), sum.TCP.SrcPort, sum.TCP.DstPort)
		}
	}
	t.leaf(stHash, at, id, ntcp)

	at = t.now()
	s.loop.PushBurst(s.bufs[:n])
	s.loop.PopBurst(s.popped[:n])
	t.leaf(stRing, at, id, n)

	if s.tiers != nil {
		at = t.now()
		for k := 0; k < n; k++ {
			if s.tcp[k] {
				s.tiers[s.queue[k]].Observe(&s.sums[k])
			}
		}
		t.leaf(stSketch, at, id, ntcp)
	}

	at = t.now()
	var m core.Measurement
	for k := 0; k < n; k++ {
		if b := s.bufs[k]; s.tcp[k] && s.tables[s.queue[k]].Process(&s.sums[k], b.Timestamp, b.RSSHash, &m) {
			s.pending = append(s.pending, m)
		}
	}
	t.leaf(stHandshake, at, id, ntcp)

	if s.ts != nil {
		s.tsOut, s.seqOut, s.lossOut = s.tsOut[:0], s.seqOut[:0], s.lossOut[:0]
		at = t.now()
		var smp core.TSSample
		for k := 0; k < n; k++ {
			if b := s.bufs[k]; s.tcp[k] && s.ts[s.queue[k]].Process(&s.sums[k], b.Timestamp, b.RSSHash, &smp) {
				s.tsOut = append(s.tsOut, smp)
			}
		}
		t.leaf(stTSRTT, at, id, ntcp)

		at = t.now()
		var (
			ss  core.SeqSample
			lev core.LossEvent
		)
		for k := 0; k < n; k++ {
			if !s.tcp[k] {
				continue
			}
			b := s.bufs[k]
			gotSample, gotLoss := s.seq[s.queue[k]].Process(&s.sums[k], b.Timestamp, b.RSSHash, &ss, &lev)
			if gotSample {
				s.seqOut = append(s.seqOut, ss)
			}
			if gotLoss {
				s.lossOut = append(s.lossOut, lev)
			}
		}
		t.leaf(stSeqRTT, at, id, ntcp)
	}

	// The same packets once more, packet-major through a second set of
	// tables: what one packet pays when all the trackers run back to back.
	at = t.now()
	for k := 0; k < n; k++ {
		if !s.tcp[k] {
			continue
		}
		b, q := s.bufs[k], s.queue[k]
		s.tables2[q].Process(&s.sums[k], b.Timestamp, b.RSSHash, &m)
		if s.ts2 != nil {
			var smp core.TSSample
			var ss core.SeqSample
			var lev core.LossEvent
			s.ts2[q].Process(&s.sums[k], b.Timestamp, b.RSSHash, &smp)
			s.seq2[q].Process(&s.sums[k], b.Timestamp, b.RSSHash, &ss, &lev)
		}
	}
	t.leaf(stAllTrackers, at, id, ntcp)

	at = t.now()
	for k := 0; k < n; k++ {
		s.bufs[k].Free()
	}
	t.leaf(stRx, at, id, 0)

	// The pipeline's queue workers turn each sample into a geo-tagged
	// point and DB.Write it themselves; only the write is the span.
	s.points = s.points[:0]
	for k := range s.tsOut {
		smp := &s.tsOut[k]
		s.points = append(s.points, rttPoint(s.city(smp.Echoer), s.city(smp.Peer), "ts", smp.RTT, smp.At))
	}
	for k := range s.seqOut {
		ss := &s.seqOut[k]
		s.points = append(s.points, rttPoint(s.city(ss.Responder), s.city(ss.Peer), "seq", ss.RTT, ss.At))
	}
	for k := range s.lossOut {
		lev := &s.lossOut[k]
		s.points = append(s.points, lossPoint(s.city(lev.Src), s.city(lev.Dst), lev.Kind.String(), lev.At))
	}
	s.tsOut, s.seqOut, s.lossOut = s.tsOut[:0], s.seqOut[:0], s.lossOut[:0]
	if len(s.points) > 0 {
		at = t.now()
		for k := range s.points {
			if err := s.dbMem.Write(&s.points[k]); err != nil {
				return err
			}
		}
		t.leaf(stWrite, at, id, len(s.points))
		s.pointsN += uint64(len(s.points))
	}
	t.close(stBurst, root, n)

	for len(s.pending) >= 64 {
		if err := s.batch(); err != nil {
			return err
		}
	}
	return nil
}

// sinkHash keeps the hash loop's result alive.
var sinkHash uint32

func (s *stager) city(a netip.Addr) string {
	if rec, ok := s.r.world.DB().Lookup(a); ok {
		return rec.City
	}
	return "Unknown"
}

func rttPoint(echoer, peer, mode string, rtt, at int64) tsdb.Point {
	return tsdb.Point{Name: "rtt_stream",
		Tags:   []tsdb.Tag{{Key: "echoer_city", Value: echoer}, {Key: "peer_city", Value: peer}, {Key: "mode", Value: mode}},
		Fields: []tsdb.Field{{Key: "rtt_ms", Value: float64(rtt) / 1e6}}, Time: at}
}

func lossPoint(src, dst, kind string, at int64) tsdb.Point {
	return tsdb.Point{Name: "tcp_loss",
		Tags:   []tsdb.Tag{{Key: "src_city", Value: src}, {Key: "dst_city", Value: dst}, {Key: "kind", Value: kind}},
		Fields: []tsdb.Field{{Key: "count", Value: 1}}, Time: at}
}

// batch takes up to 64 pending measurements through everything a
// measurement pays between the engine and the browser.
func (s *stager) batch() error {
	n := min(len(s.pending), 64)
	if n == 0 {
		return nil
	}
	ms := s.pending[:n]
	t := s.tr
	s.batches++
	id := s.batches
	root := t.open(stBatch, id)

	// Engine side of the codec: marshal raw, and what the enricher will
	// do first, unmarshal it.
	at := t.now()
	raws := s.payloads[:0]
	var back core.Measurement
	for k := range ms {
		raw := analytics.MarshalMeasurement(nil, &ms[k])
		if err := analytics.UnmarshalMeasurement(raw, &back); err != nil {
			return err
		}
		raws = append(raws, raw)
	}
	t.leaf(stCodec, at, id, 0)
	s.payloads = raws

	at = t.now()
	geoDB := s.r.world.DB()
	for k := range ms {
		geoDB.Lookup(ms[k].Flow.Client)
		geoDB.Lookup(ms[k].Flow.Server)
	}
	t.leaf(stGeo, at, id, 2*n)

	at = t.now()
	for _, raw := range raws {
		s.enrBus.Publish(mq.Message{Topic: analytics.TopicRaw, Payload: raw})
	}
	enriched := make([][]byte, 0, n)
	for len(enriched) < n {
		msg, ok := <-s.enrOut.C()
		if !ok {
			return errors.New("enricher bus closed")
		}
		enriched = append(enriched, msg.Payload)
	}
	t.leaf(stEnrich, at, id, n)

	// Sink side of the codec: unmarshal enriched, and what the enricher
	// did last, marshal it.
	at = t.now()
	s.enriched = s.enriched[:0]
	var scratch []byte
	for _, payload := range enriched {
		var e analytics.Enriched
		if err := analytics.UnmarshalEnriched(payload, &e); err != nil {
			return err
		}
		scratch = analytics.MarshalEnriched(scratch[:0], &e)
		s.enriched = append(s.enriched, e)
	}
	t.leaf(stCodec, at, id, n)

	at = t.now()
	for _, raw := range raws {
		s.loopBus.Publish(mq.Message{Topic: analytics.TopicRaw, Payload: raw})
	}
	for k := 0; k < n; k++ {
		<-s.loopSub.C()
	}
	t.leaf(stPublish, at, id, n)

	at = t.now()
	s.sinkN += uint64(n)
	for _, payload := range enriched {
		s.sink.Bus.Publish(mq.Message{Topic: analytics.TopicEnriched, Payload: payload})
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		if written, _ := s.sink.DB.WriteStats(); written >= s.sinkN {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("traced sink did not store %d points in 10s", s.sinkN)
		}
		runtime.Gosched()
	}
	t.leaf(stSink, at, id, n)

	at = t.now()
	frame, err := json.Marshal(s.enriched)
	if err != nil {
		return err
	}
	t.leaf(stFrameJSON, at, id, n)

	at = t.now()
	s.hub.Broadcast(frame)
	t.leaf(stBroadcast, at, id, 1)

	at = t.now()
	if err := s.writeRef(s.dbMem, s.refsMem); err != nil {
		return err
	}
	t.leaf(stWriteRef, at, id, n)

	at = t.now()
	if err := s.writeRef(s.dbWAL, s.refsWAL); err != nil {
		return err
	}
	t.leaf(stWriteRefWAL, at, id, n)

	t.close(stBatch, root, n)
	s.measurements += uint64(n)
	s.pointsN += uint64(n)
	s.pending = s.pending[:copy(s.pending, s.pending[n:])]
	return nil
}

// writeRef is the sink worker's write: intern each series once, then one
// WriteBatchRef for the batch.
func (s *stager) writeRef(db *tsdb.DB, refs map[string]tsdb.SeriesRef) error {
	s.rpts = s.rpts[:0]
	if need := 3 * len(s.enriched); cap(s.vals) < need {
		s.vals = make([]float64, 0, need)
	}
	vals := s.vals[:0]
	for k := range s.enriched {
		e := &s.enriched[k]
		s.keyBuf = analytics.AppendLatencyKey(s.keyBuf[:0], e)
		ref, ok := refs[string(s.keyBuf)]
		if !ok {
			pt := analytics.LatencyPoint(e)
			var err error
			if ref, err = db.Ref(pt.Name, pt.Tags, analytics.LatencyFieldKeys()...); err != nil {
				return err
			}
			refs[string(s.keyBuf)] = ref
		}
		at := len(vals)
		vals = analytics.AppendLatencyVals(vals, e)
		s.rpts = append(s.rpts, tsdb.RefPoint{Ref: ref, Time: e.Time, Vals: vals[at:len(vals):len(vals)]})
	}
	_, err := db.WriteBatchRef(s.rpts)
	return err
}

// medianMs runs f n times and returns the median duration in ms.
func medianMs(n int, f func() error) (float64, error) {
	var ms []float64
	for k := 0; k < n; k++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms), nil
}

// reopen closes the durable store and opens it again: how long the open
// took and how many points it recovered.
func (s *stager) reopen() (time.Duration, uint64, error) {
	err := s.dbWAL.Close()
	s.dbWAL = nil
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	if s.dbWAL, err = tsdb.OpenDB(s.walOpts); err != nil {
		return 0, 0, err
	}
	took := time.Since(t0)
	ps := s.dbWAL.PersistStats()
	return took, ps.RestoredPoints + ps.WALReplayedPoints, nil
}

// dirBytes sums the regular files directly in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// stageBudget runs the traced pass and fills the per-layer stage metrics.
func (r *rig) stageBudget(res *result, u0, u1 *usage) error {
	s, err := newStager(r)
	if err != nil {
		return err
	}
	defer func() {
		if err := s.tearDown(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: traced pass tear down: %v\n", err)
		}
	}()
	t := s.tr

	// A closed loop's first lap is a warm-up, outside the clock: it touches
	// the pool, the tables and the sketches for the first time and creates
	// every series. An open loop's trace is one long lap that the budget
	// has no room to repeat; its spans include that first-touch cost.
	laps := 0
	if !r.rc.wl.open {
		if err := s.lap(laps); err != nil {
			return err
		}
		laps++
		*t = tracer{}
	}
	// Then whole laps until the budget is spent, at least one.
	t.t0 = time.Now()
	t.on = true
	budget := time.Duration(r.rc.seconds / 2 * float64(time.Second))
	for first := laps; laps == first || time.Since(t.t0) < budget; laps++ {
		if err := s.lap(laps); err != nil {
			return err
		}
	}
	t.flip()
	overhead := 0.0
	if t.onN > 0 && t.offN > 0 {
		on, off := float64(t.onT)/float64(t.onN), float64(t.offT)/float64(t.offN)
		overhead = (on - off) / off
	}
	end := r.base + int64(laps)*r.tr.span

	set := res.layer
	set("trace.overhead_frac", overhead)
	set("trace.laps", float64(laps))
	set("rss.hash_ns_per_pkt", t.per(stHash))
	set("pkt.parse_ns_per_pkt", t.per(stParse))
	set("nic.inject_ns_per_pkt", t.per(stInject))
	set("nic.rx_ns_per_pkt", t.per(stRx))
	set("ring.burst_ns_per_item", t.per(stRing))
	set("sketch.observe_ns_per_pkt", t.per(stSketch))
	set("core.handshake_ns_per_pkt", t.per(stHandshake))
	set("core.tsrtt_ns_per_pkt", t.per(stTSRTT))
	set("core.seqrtt_ns_per_pkt", t.per(stSeqRTT))
	set("core.all_trackers_ns_per_pkt", t.per(stAllTrackers))
	set("analytics.codec_ns_per_meas", t.per(stCodec))
	set("mq.publish_ns_per_msg", t.per(stPublish))
	set("geo.lookup_ns_per_addr", t.per(stGeo))
	set("analytics.enrich_ns_per_meas", t.per(stEnrich))
	set("ruru.sink_ns_per_meas", t.per(stSink))
	set("ruru.frame_json_ns_per_meas", t.per(stFrameJSON))
	set("ws.broadcast_ns_per_frame", t.per(stBroadcast))
	set("tsdb.write_ref_ns_per_pt", t.per(stWriteRef))
	set("tsdb.write_ns_per_pt", t.per(stWrite))
	set("tsdb.wal_ns_per_pt", t.per(stWriteRefWAL)-t.per(stWriteRef))
	set("bench.harness_ns_per_pkt", t.per(stBurst))

	// The budget: what a packet pays in the layers, and the remainder. Of
	// the codec's four passes only the engine's marshal is added, the
	// other three happen inside the running enricher and sink.
	perPkt := func(st stage) float64 { return float64(t.ns[st]) / max(1, float64(t.work[stBurst])) }
	layers := perPkt(stInject) + perPkt(stRx) + perPkt(stParse) + perPkt(stSketch) +
		perPkt(stHandshake) + perPkt(stTSRTT) + perPkt(stSeqRTT) + perPkt(stWrite) +
		perPkt(stCodec)/4 + perPkt(stPublish) + perPkt(stEnrich) + perPkt(stSink)
	if r.rc.wl.open {
		layers += perPkt(stFrameJSON) + perPkt(stBroadcast) // a viewer watches the whole timed loop
	}
	cpuPerPkt := float64(u1.cpu-u0.cpu) / float64(u1.stats.Port.Ipackets-u0.stats.Port.Ipackets)
	set("ruru.layers_ns_per_pkt", layers)
	set("ruru.glue_ns_per_pkt", cpuPerPkt-layers)

	if err := s.readPath(res, end); err != nil {
		return err
	}
	if err := s.durability(res); err != nil {
		return err
	}

	res.Counts["traced_laps"] = uint64(laps)
	res.Counts["traced_packets"] = s.packets
	res.Counts["traced_tcp_packets"] = s.tcpPackets
	res.Counts["traced_measurements"] = s.measurements
	res.Counts["traced_points"] = s.pointsN
	return s.writeSpans()
}

// readPath times the dashboard query over the hour ending at end on the
// stores the pass filled (the same points in each): uncached, cached, and
// over HTTP.
func (s *stager) readPath(res *result, end int64) error {
	set := res.layer
	q := dashboardQuery(end)
	tier, err := medianMs(5, func() error { _, err := s.dbMem.Execute(q); return err })
	if err != nil {
		return err
	}
	if _, err := s.dbWAL.Execute(q); err != nil { // fills the cache
		return err
	}
	cached, err := medianMs(5, func() error { _, err := s.dbWAL.Execute(q); return err })
	if err != nil {
		return err
	}
	exec, err := medianMs(5, func() error { _, err := s.sink.DB.Execute(q); return err })
	if err != nil {
		return err
	}
	qr := newQuerier(s.sinkSrv.URL)
	trip, err := medianMs(5, func() error {
		if !qr.get(end) {
			return errors.New("traced sink: dashboard query failed")
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("tsdb.query_tier_ms", tier)
	set("tsdb.query_cached_ms", cached)
	set("web.query_overhead_ms", trip-exec)
	return nil
}

// durability times what a restart costs on the durable store the pass filled.
func (s *stager) durability(res *result) error {
	set := res.layer
	// Durability: a replay of the whole WAL, its size per point, a
	// checkpoint, a load of that checkpoint.
	written, _ := s.dbWAL.WriteStats()
	replay, replayed, err := s.reopen()
	if err != nil {
		return err
	}
	bytes, err := dirBytes(filepath.Join(s.walOpts.Persist.Dir, "wal"))
	if err != nil {
		return err
	}
	info, err := s.dbWAL.Checkpoint()
	if err != nil {
		return err
	}
	load, loaded, err := s.reopen()
	if err != nil {
		return err
	}
	if replayed != written || loaded != written {
		res.problem("traced store wrote %d points, replayed %d, loaded %d", written, replayed, loaded)
	}
	set("tsdb.wal_bytes_per_pt", float64(bytes)/max(1, float64(written)))
	set("tsdb.checkpoint_ms", float64(info.Took)/1e6)
	set("tsdb.restore_pts_per_s", float64(replayed+loaded)/(replay+load).Seconds())
	return nil
}

// writeSpans writes the kept spans to out/trace-<workload>.json, one array
// [stage, start, end, parent, id, work] per span.
func (s *stager) writeSpans() error {
	path := filepath.Join(s.r.rc.outDir, "trace-"+s.r.rc.wl.name+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	names, _ := json.Marshal(stageNames[:]) // strings cannot fail to marshal
	fmt.Fprintf(w, "{\"workload\":%q,\"unit\":\"ns\",\"columns\":[\"stage\",\"start\",\"end\",\"parent\",\"id\",\"work\"],\"stages\":%s,\"spans\":[\n", s.r.rc.wl.name, names)
	for i, sp := range s.tr.spans {
		sep := ","
		if i == len(s.tr.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d,%d,%d]%s\n", sp.stage, sp.start, sp.end, sp.parent, sp.id, sp.work, sep)
	}
	w.WriteString("]}\n")
	return errors.Join(w.Flush(), f.Close()) // Flush reports the first write error
}
