// Package ruru assembles the full pipeline from the paper's Figure 2:
//
//	traffic → [nic: RSS → per-core queues] → [core: handshake engine]
//	        → (mq "ZeroMQ" bus, raw topic) → [analytics: geo enrich + anonymize]
//	        → (mq bus, enriched topic) → { tsdb sink, WebSocket hub,
//	                                        anomaly detectors, arc feed }
//
// This is the public-facing entry point a downstream user embeds: construct
// a Pipeline, drive traffic into Pipeline.Port with nic.Drive (from the
// generator, a pcap trace, or any frame source), and consume results from
// the TSDB, the WebSocket hub, the HTTP API, or the anomaly event streams.
package ruru

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"ruru/internal/analytics"
	"ruru/internal/anomaly"
	"ruru/internal/core"
	"ruru/internal/fed"
	"ruru/internal/geo"
	"ruru/internal/mq"
	"ruru/internal/nic"
	"ruru/internal/sketch"
	"ruru/internal/tsdb"
	"ruru/internal/ws"
)

// Config configures a Pipeline. Zero values get production-shaped defaults.
type Config struct {
	// GeoDB is the geolocation database. Required.
	GeoDB *geo.DB

	// Queues is the number of RSS queues / measurement cores (default 4).
	Queues int
	// Burst is the RxBurst size (default 64).
	Burst int

	// Overflow selects what injection does when an RX queue is full:
	// nic.Drop (default, NIC-faithful: frame lost, counted Imissed) or
	// nic.Block (lossless sources: injection waits for queue space until
	// the port is stopped).
	Overflow nic.OverflowPolicy

	// FlowTableBytes, when > 0, enables the bounded-memory sketch tier
	// and is the hard byte cap across all per-flow state: per-queue
	// count-min sketches and heavy-hitter summaries (fixed overhead), the
	// city-pair latency summary, and every exact table entry (handshake
	// plus both continuous-RTT trackers) charged at its struct size. When
	// the cap is reached, new flows live sketch-only — volume still
	// estimated, heavy hitters still ranked, but no per-flow record —
	// and the induced error is surfaced in Stats.Sketch. Must be at
	// least MinFlowTableBytes(Queues). Zero keeps exact-only mode.
	FlowTableBytes int64

	// SinkWorkers is the number of sharded sink workers draining the
	// enriched stream (default 4). Measurements are partitioned by a hash
	// of the src_city→dst_city pair, so every anomaly-detector key and
	// every TSDB latency series keeps single-worker affinity.
	SinkWorkers int
	// SinkBatch is the maximum measurements one sink worker drains per
	// wakeup — one TSDB batch write and at most one coalesced WebSocket
	// frame per batch (default 64).
	SinkBatch int

	// TSDB options. ShardDuration is the width of one storage time shard
	// and Retention the raw-point horizon, both in nanoseconds of the
	// data's own clock (zero values keep tsdb defaults: 1h shards,
	// keep-everything).
	ShardDuration int64
	Retention     int64
	// DBStripes is the TSDB lock-stripe count: concurrent sink workers
	// contend only within a stripe (default 8; 1 restores a single global
	// write lock).
	DBStripes int
	// Rollups configures the TSDB's multi-resolution downsampling tiers
	// (see tsdb.RollupTier): every stored measurement additionally feeds
	// each tier's pre-aggregates, and aligned dashboard queries are served
	// from the coarsest usable tier instead of re-scanning raw points.
	// Nil disables rollups; tsdb.DefaultRollups() gives the standard
	// 1s/10s/1m ladder.
	Rollups []tsdb.RollupTier
	// Persist enables durable TSDB storage when Persist.Dir is non-empty:
	// measurements are written through a WAL, checkpointed periodically,
	// and restored (checkpoint + WAL replay, rollup tiers rebuilt) the
	// next time a pipeline opens the same directory. New fails if the
	// directory is locked by another live process. Zero value keeps the
	// TSDB in-memory. See tsdb.PersistOptions for the fsync/checkpoint
	// knobs and docs/OPERATIONS.md for tuning guidance.
	Persist tsdb.PersistOptions

	// QueryCacheBytes, when > 0, enables the TSDB's query result cache with
	// that byte budget (LRU, bit-exact with uncached execution, incremental
	// tail refresh for advancing dashboard windows — see tsdb.Options).
	// Zero disables caching.
	QueryCacheBytes int64

	// TrackTimestamps enables continuous RTT measurement from TCP
	// timestamp echoes (the pping-style extension). Samples are
	// geo-enriched (IPs dropped, like measurements) and written to the
	// TSDB measurement "rtt_stream" with tags echoer_city/peer_city and
	// mode=ts.
	TrackTimestamps bool

	// TrackSeq enables continuous RTT from data→ACK sequence matching
	// plus retransmit/RTO/dupack loss classification — the flows the
	// timestamp tracker cannot see (no TS option negotiated). Samples
	// join "rtt_stream" tagged mode=seq; loss events are written to the
	// "tcp_loss" measurement with tags src_city/dst_city/kind. When both
	// trackers run, timestamp-bearing flows are sampled only by the
	// timestamp tracker (no double counting) while loss classification
	// stays on for every flow.
	TrackSeq bool
	// OneDirection switches the seq tracker to asymmetric-tap mode for
	// taps that see only one side of each conversation: samples become
	// round-trip *response* latencies self-paired within the visible
	// direction, tagged mode=onedir. Implies TrackSeq.
	OneDirection bool

	// RemoteWrite, when Addr is set, turns this pipeline into a federation
	// probe: every enriched measurement additionally streams to a central
	// aggregator as acked, spooled, CRC-framed batches (see internal/fed).
	// The local TSDB keeps working — the probe remains fully queryable on
	// its own.
	RemoteWrite fed.ProbeConfig
	// Federate, when Listen is set, turns this pipeline into a federation
	// aggregator: remote probes' measurements are ingested into DB through
	// the normal WriteBatch→rollup→WAL path, each series tagged
	// probe=<probe id>, deduplicated by per-probe sequence number.
	Federate fed.AggConfig
}

// Measurement topics re-exported for consumers wiring extra modules in.
const (
	TopicRaw      = analytics.TopicRaw
	TopicEnriched = analytics.TopicEnriched
)

// pairTopKeys is the capacity of the city-pair latency summary: enough for
// every pair among ~16 cities, bounded regardless of traffic.
const pairTopKeys = 256

// Stage shapes with one value in use everywhere (daemon, examples,
// benchmark, tests), so constants rather than Config fields.
const (
	poolSize      = 16384   // packet mempool buffers
	bufSize       = 2048    // bytes per packet buffer
	queueDepth    = 4096    // per-queue RX ring slots: one idle sleep's arrivals at 2 Mpps
	tableCapacity = 1 << 16 // per-queue slots in each flow table
	arcsBuffer    = 4096    // recent measurements each sink shard keeps for the arc feed
	enrichWorkers = 4       // analytics pool size
	hubQueue      = 256     // per-WebSocket-client queue depth
)

// MinFlowTableBytes returns the smallest Config.FlowTableBytes able to host
// the sketch tier for the given queue count: each queue's minimum tier
// (smallest count-min sketch plus smallest heavy-hitter summaries) plus the
// fixed city-pair summary. At exactly this budget the exact tables get a
// zero byte allowance — every flow lives sketch-only — which tests use as a
// deterministic floor.
func MinFlowTableBytes(queues int) int64 {
	if queues <= 0 {
		queues = 4
	}
	return int64(queues)*sketch.MinBudgetBytes() + sketch.TopKBytes[string](pairTopKeys)
}

// Pipeline is an assembled Ruru instance. The exported stage fields are
// the embedding points for callers: inject traffic into Port, read
// aggregates from DB, attach WebSocket clients via Hub, subscribe to Bus
// topics for custom modules. Each stage is individually safe for
// concurrent use (see ARCHITECTURE.md for the per-package contracts); the
// fields themselves must be treated as read-only after New returns.
type Pipeline struct {
	cfg Config

	Pool     *nic.Mempool        // packet buffer pool shared by all queues
	Port     *nic.Port           // ingest: InjectBurst (via nic.Drive), RxBurst, per-queue stats
	Engine   *core.Engine        // per-queue handshake measurement workers
	Bus      *mq.Bus             // PUB/SUB bus carrying raw + enriched topics
	Enricher *analytics.Enricher // geo/AS enrichment worker pool
	DB       *tsdb.DB            // embedded TSDB (queries, snapshot, rollups)
	Hub      *ws.Hub             // WebSocket fan-out to live frontends

	Spikes *anomaly.SpikeBank // per-city-pair latency spike detectors
	Flood  *anomaly.RateAlarm // SYN-flood alarm (expiry-fed)
	Surge  *anomaly.RateAlarm // per-pair connection-rate surge alarm

	Remote *fed.Probe      // remote-write client (nil unless Config.RemoteWrite)
	Agg    *fed.Aggregator // federation endpoint (nil unless Config.Federate)

	// Sketch holds the per-queue bounded-memory flow tiers (nil unless
	// Config.FlowTableBytes > 0). Each tier is owned by its queue worker;
	// external readers may only use Snapshot() (see /api/topk).
	Sketch []*sketch.FlowTier

	// pairTop is the bounded per-(src_city,dst_city) latency summary, fed
	// by the sink workers under pairTopMu (a leaf lock: nothing is ever
	// acquired while holding it — see internal/lint spec).
	pairTop   *sketch.TopK[string]
	pairTopMu sync.Mutex

	tsSamples  atomic.Uint64
	seqSamples atomic.Uint64
	lossPoints atomic.Uint64

	sinkSub          *mq.Subscription
	sinkShards       []*sinkShard
	sinkDecodeErrors atomic.Uint64
	sinkWriteErrors  atomic.Uint64
	shutdownDrop     atomic.Uint64
}

// sinkShard is the state owned by one sink worker: its routing channel,
// the worker-private scratch (SeriesRef cache keyed by geo/AS identity,
// reusable RefPoint/value buffers, the WebSocket frame buffer — touched
// only by the owning worker, never under mu), and the arc ring that mu
// guards against RecentArcs.
type sinkShard struct {
	ch chan sinkItem

	// Worker-private: per-identity interned TSDB handles and batch scratch.
	refs     map[string]tsdb.SeriesRef
	keyBuf   []byte
	rpts     []tsdb.RefPoint
	vals     []float64
	frameBuf []analytics.Enriched // reusable WS frame scratch

	mu      sync.Mutex
	arcsBuf []analytics.Enriched
	arcsPos int
}

// New assembles a pipeline.
func New(cfg Config) (*Pipeline, error) {
	if cfg.GeoDB == nil {
		return nil, errors.New("ruru: Config.GeoDB is required")
	}
	if cfg.Queues <= 0 {
		cfg.Queues = 4
	}
	if cfg.SinkWorkers <= 0 {
		cfg.SinkWorkers = 4
	}
	if cfg.SinkBatch <= 0 {
		cfg.SinkBatch = 64
	}

	p := &Pipeline{cfg: cfg}
	p.Pool = nic.NewMempool(poolSize, bufSize)
	var err error
	p.Port, err = nic.NewPort(nic.PortConfig{
		Queues: cfg.Queues, QueueDepth: queueDepth, Pool: p.Pool,
		Policy: cfg.Overflow,
	})
	if err != nil {
		return nil, err
	}
	p.Bus = mq.NewBus()
	p.Flood = anomaly.NewFloodAlarm()
	p.Spikes = anomaly.NewSpikeBank()
	p.Surge = anomaly.NewSurgeAlarm()

	sink := analytics.NewBusSink(p.Bus)
	engCfg := core.EngineConfig{
		Port: p.Port,
		Sink: sink,
		Table: core.TableConfig{
			Capacity: tableCapacity,
			OnExpire: p.onExpire,
		},
		Burst: cfg.Burst,
	}
	if cfg.TrackTimestamps {
		engCfg.TSSink = core.TSSinkFunc(p.onTSSample)
		engCfg.TSTable = core.TSConfig{Capacity: tableCapacity}
	}
	if cfg.TrackSeq || cfg.OneDirection {
		engCfg.SeqSink = seqSinkAdapter{p}
		engCfg.SeqTable = core.SeqConfig{
			Capacity:     tableCapacity,
			OneDirection: cfg.OneDirection,
			// DeferTS is decided by the engine: set iff the timestamp
			// tracker also runs and the tap sees both directions.
		}
	}
	if cfg.FlowTableBytes > 0 {
		if min := MinFlowTableBytes(cfg.Queues); cfg.FlowTableBytes < min {
			return nil, fmt.Errorf("ruru: Config.FlowTableBytes %d below minimum %d for %d queues",
				cfg.FlowTableBytes, min, cfg.Queues)
		}
		seed := maphash.MakeSeed()
		p.pairTop = sketch.NewTopK(pairTopKeys, func(pair string) uint64 { return maphash.String(seed, pair) })
		perQ := (cfg.FlowTableBytes - p.pairTop.Bytes()) / int64(cfg.Queues)
		p.Sketch = make([]*sketch.FlowTier, cfg.Queues)
		for q := range p.Sketch {
			tier, terr := sketch.NewFlowTier(sketch.TierConfig{BudgetBytes: perQ, Queue: q})
			if terr != nil {
				return nil, fmt.Errorf("ruru: sketch tier %d: %w", q, terr)
			}
			p.Sketch[q] = tier
		}
		engCfg.NewAdmitter = func(q int) core.Admitter { return p.Sketch[q] }
	}
	p.Engine, err = core.NewEngine(engCfg)
	if err != nil {
		return nil, err
	}
	p.Enricher, err = analytics.NewEnricher(analytics.Config{
		DB: cfg.GeoDB, Bus: p.Bus, Workers: enrichWorkers, HWM: 1 << 15,
	})
	if err != nil {
		return nil, err
	}
	var persist *tsdb.PersistOptions
	if cfg.Persist.Dir != "" {
		pp := cfg.Persist
		persist = &pp
	}
	p.DB, err = tsdb.OpenDB(tsdb.Options{
		ShardDuration: cfg.ShardDuration, Retention: cfg.Retention,
		Stripes: cfg.DBStripes, Rollups: cfg.Rollups, Persist: persist,
		QueryCache: cfg.QueryCacheBytes,
	})
	if err != nil {
		return nil, err
	}
	p.Hub = ws.NewHub(hubQueue)
	p.sinkShards = make([]*sinkShard, cfg.SinkWorkers)
	for i := range p.sinkShards {
		p.sinkShards[i] = &sinkShard{
			ch:      make(chan sinkItem, sinkShardDepth),
			refs:    make(map[string]tsdb.SeriesRef),
			arcsBuf: make([]analytics.Enriched, 0, arcsBuffer),
		}
	}

	p.sinkSub, err = p.Bus.Subscribe(TopicEnriched, 1<<15)
	if err != nil {
		return nil, err
	}
	if cfg.RemoteWrite.Addr != "" {
		p.Remote, err = fed.NewProbe(cfg.RemoteWrite, p.Bus)
		if err != nil {
			return nil, errors.Join(err, p.DB.Close())
		}
	}
	if cfg.Federate.Listen != "" {
		p.Agg, err = fed.NewAggregator(cfg.Federate, p.DB)
		if err != nil {
			if p.Remote != nil {
				err = errors.Join(err, p.Remote.Close())
			}
			return nil, errors.Join(err, p.DB.Close())
		}
	}
	return p, nil
}

// onExpire feeds incomplete-handshake evictions to the flood alarm.
// Called from queue workers; the alarm's own lock serializes them
// (expiries are rare relative to packets).
func (p *Pipeline) onExpire(lastTS int64, awaitingSYNACK bool) {
	if awaitingSYNACK {
		p.Flood.ObserveUnanswered(lastTS)
	}
}

// storeTracked writes one tracker output — a continuous-RTT sample or a
// loss event — straight into the TSDB: the one place a tracker Point is
// built. The two endpoints are geo-enriched and anonymized (only their
// cities reach storage, like measurements) under tag keys keyA/keyB. Called
// from queue workers; the TSDB write path has its own lock. Tracker output
// never touches the bus, so rollups and dashboard queries see these series
// but the anomaly detectors, WebSocket clients and the federation probe do
// not (ROADMAP open item 3). A point the DB refuses (closing under a late
// queue worker) lands in DBWriteErrors, the same ledger as the sink, and
// is not counted in stored.
func (p *Pipeline) storeTracked(stored *atomic.Uint64, name string,
	keyA string, a netip.Addr, keyB string, b netip.Addr, third tsdb.Tag,
	field string, v float64, at int64) {
	cityA, cityB := "Unknown", "Unknown"
	if rec, ok := p.cfg.GeoDB.Lookup(a); ok {
		cityA = rec.City
	}
	if rec, ok := p.cfg.GeoDB.Lookup(b); ok {
		cityB = rec.City
	}
	pt := tsdb.Point{
		Name:   name,
		Tags:   []tsdb.Tag{{Key: keyA, Value: cityA}, {Key: keyB, Value: cityB}, third},
		Fields: []tsdb.Field{{Key: field, Value: v}},
		Time:   at,
	}
	if err := p.DB.Write(&pt); err != nil {
		p.sinkWriteErrors.Add(1)
		return
	}
	stored.Add(1)
}

// onTSSample stores one timestamp-echo RTT sample in the "rtt_stream"
// measurement, tagged mode=ts.
func (p *Pipeline) onTSSample(s *core.TSSample) {
	p.storeTracked(&p.tsSamples, "rtt_stream", "echoer_city", s.Echoer, "peer_city", s.Peer,
		tsdb.Tag{Key: "mode", Value: "ts"}, "rtt_ms", float64(s.RTT)/1e6, s.At)
}

// seqSinkAdapter routes seq-tracker output from the engine's queue workers
// into the pipeline's storage path.
type seqSinkAdapter struct{ p *Pipeline }

// EmitSeq stores one sequence-matched RTT sample into the same "rtt_stream"
// measurement as timestamp samples, distinguished by the mode tag (seq, or
// onedir for asymmetric-tap estimates). The ACK sender (for onedir, the
// invisible peer) fills the echoer_city position: both trackers put the
// measured side of the path in that tag.
func (a seqSinkAdapter) EmitSeq(s *core.SeqSample) {
	mode := "seq"
	if s.OneDir {
		mode = "onedir"
	}
	a.p.storeTracked(&a.p.seqSamples, "rtt_stream", "echoer_city", s.Responder, "peer_city", s.Peer,
		tsdb.Tag{Key: "mode", Value: mode}, "rtt_ms", float64(s.RTT)/1e6, s.At)
}

// EmitLoss stores one classified loss/quality event as a "tcp_loss" point
// (count=1 per event, so any time-window sum is an event count), tagged
// with the class: retrans, rto or dupack.
func (a seqSinkAdapter) EmitLoss(ev *core.LossEvent) {
	a.p.storeTracked(&a.p.lossPoints, "tcp_loss", "src_city", ev.Src, "dst_city", ev.Dst,
		tsdb.Tag{Key: "kind", Value: ev.Kind.String()}, "count", 1, ev.At)
}

// drainTimeout bounds the shutdown drain: once Run is cancelled and the
// engine has stopped, the sink gets this long to empty its queues. The
// enricher's drain needs no bound, as it never blocks. Whatever is still
// queued at the deadline is counted in Stats.ShutdownDrop; a TSDB write
// already in progress is waited for. A variable only so tests can cut the
// drain short.
var drainTimeout = 5 * time.Second

// Run operates the pipeline until ctx is cancelled, then drains it, and
// returns ctx.Err(). The engine stops first, having processed the packets
// already in its RX queues; then the enricher, the remote-write probe, the
// sink dispatcher and the sink workers each empty their queue once the
// stage upstream of them has stopped. So when Run returns, every
// measurement the engine completed is stored or counted in a loss class
// (the Stats ledger), and a probe has spooled all it was handed. Run
// returns as soon as the last stage is empty; drainTimeout bounds only a
// sink stage that does not empty.
func (p *Pipeline) Run(ctx context.Context) error {
	live, stopEnricher := context.WithCancel(context.Background())
	enriched, stopEnriched := context.WithCancel(context.Background()) // done once the enricher publishes no more
	halt, cutOff := context.WithCancel(context.Background())
	defer cutOff()
	routed := make(chan struct{}) // closed once the dispatcher routes no more

	var wg sync.WaitGroup
	wg.Add(2 + len(p.sinkShards))
	go func() {
		defer wg.Done()
		defer stopEnriched()
		p.Enricher.Run(live)
	}()
	go func() {
		defer wg.Done()
		defer close(routed)
		p.runSinkDispatcher(halt, enriched.Done())
	}()
	for _, sh := range p.sinkShards {
		go func(sh *sinkShard) {
			defer wg.Done()
			p.runSinkWorker(halt, routed, sh)
		}(sh)
	}
	if p.Remote != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Remote.Run(enriched)
		}()
	}
	p.Engine.Run(ctx)
	stopEnricher()
	defer time.AfterFunc(drainTimeout, cutOff).Stop()
	wg.Wait()
	// Only a drain the deadline cut short leaves anything queued.
	p.shutdownDrop.Add(discard(p.sinkSub.C()))
	for _, sh := range p.sinkShards {
		p.shutdownDrop.Add(discard(sh.ch))
	}
	return ctx.Err()
}

// discard empties what ch holds now and returns how many items that was.
func discard[T any](ch <-chan T) (n uint64) {
	for range len(ch) {
		if _, ok := <-ch; !ok {
			break
		}
		n++
	}
	return n
}

// Stats is a full-pipeline counter snapshot. Together the sink counters
// account for every enriched measurement: each one published on the bus is
// either stored (DBPoints), lost at the sink subscription's high-water mark
// (SinkDrop), malformed (SinkDecodeErrors), behind the retention horizon at
// write time (DBDropped), refused by the TSDB (DBWriteErrors), or still
// queued when the shutdown drain's deadline expired (ShutdownDrop) — no
// loss class is silent. DBPoints is the TSDB's own counter, so it also
// holds the continuous-RTT points the queue workers write themselves; once
// the sink has drained, and always after Run has returned, the ledger is
//
//	Engine.Completed == DBPoints - TSSamples - SeqSamples - LossPoints
//	                  + SinkDrop + SinkDecodeErrors + DBDropped + DBWriteErrors
//	                  + ShutdownDrop
//
// (the subtracted counters are zero with the trackers off; a tracker point
// the TSDB refuses is counted in DBWriteErrors and is the one thing that
// unbalances it). Accounted computes the right-hand side.
type Stats struct {
	Port     nic.Stats
	Queues   []nic.QueueStats // per-RX-queue counters and ring watermarks
	Engine   core.TableStats
	Enricher analytics.Stats
	BusPub   uint64
	BusDrop  uint64
	HubSent  uint64
	HubDrop  uint64
	DBPoints uint64
	// DBDropped counts points the TSDB refused at write time because they
	// were older than the retention horizon (previously discarded from
	// the snapshot entirely).
	DBDropped uint64
	// SinkDecodeErrors counts enriched bus messages the sink could not
	// decode (previously swallowed by a bare continue).
	SinkDecodeErrors uint64
	// SinkDrop counts enriched messages lost at the sink subscription's
	// high-water mark — the collector-can't-keep-up signal (previously
	// never surfaced).
	SinkDrop uint64
	// DBWriteErrors counts measurements whose TSDB write failed: a Close
	// racing a sink worker, or — on a persistent pipeline — a WAL append
	// failure (full disk) refusing the write. Counted so neither loss
	// class is silent.
	DBWriteErrors uint64
	// ShutdownDrop counts measurements Run's shutdown drain did not reach
	// before its deadline: still queued inside the sink.
	ShutdownDrop uint64
	TSSamples    uint64 // timestamp-echo RTT samples stored (when TrackTimestamps)
	// SeqSamples counts sequence-matched RTT samples stored (mode=seq and
	// mode=onedir) and LossPoints the stored tcp_loss events; like
	// TSSamples they are included in DBPoints.
	SeqSamples uint64
	LossPoints uint64
	// TSRTT and Seq are the trackers' own counters (per-queue snapshots
	// aggregated at burst boundaries, zero when the tracker is off):
	// insert/match/unmatched/eviction behaviour plus the seq tracker's
	// retrans/rto/dupack classification totals.
	TSRTT core.TSStats
	Seq   core.SeqStats
	// Sketch is the bounded-memory tier's ledger (zero with BudgetBytes=0
	// when Config.FlowTableBytes is unset): promotions/demotions, flows
	// held sketch-only because the byte cap was reached, the induced error
	// bound, and the live/fixed byte accounting against the budget.
	Sketch core.SketchStats
	// QueryCache reports the TSDB query result cache counters. Zero value
	// with Enabled=false when Config.QueryCacheBytes is unset.
	QueryCache tsdb.CacheStats
	// Persist reports the TSDB durability counters (WAL appends/fsyncs,
	// what the last restart recovered, checkpoint age). Zero value with
	// Enabled=false when Config.Persist is unset.
	Persist tsdb.PersistStats
	// Remote reports the federation probe's remote-write counters —
	// connection health, acked/unacked/resent batches, spool footprint and
	// the backpressure loss class (Dropped). Enabled=false without
	// Config.RemoteWrite.
	Remote fed.ProbeStats
	// Fed reports the federation aggregator: totals plus per-probe
	// liveness, lag and sequence-dedup counters. Enabled=false without
	// Config.Federate.
	Fed fed.AggStats
}

// Accounted returns every handshake measurement the sink stage has disposed
// of: stored, or counted in a named loss class. Once the sink has drained it
// equals Engine.Completed (see the ledger above).
func (st Stats) Accounted() uint64 {
	return st.DBPoints - st.TSSamples - st.SeqSamples - st.LossPoints +
		st.SinkDrop + st.SinkDecodeErrors + st.DBDropped + st.DBWriteErrors + st.ShutdownDrop
}

// Stats snapshots every stage.
func (p *Pipeline) Stats() Stats {
	pub, drop := p.Bus.Stats()
	sent, hdrop := p.Hub.Stats()
	written, dbDropped := p.DB.WriteStats()
	queues := make([]nic.QueueStats, p.Port.NumQueues())
	for q := range queues {
		queues[q] = p.Port.QueueStats(q)
	}
	var remote fed.ProbeStats
	if p.Remote != nil {
		remote = p.Remote.Stats()
	}
	var agg fed.AggStats
	if p.Agg != nil {
		agg = p.Agg.Stats()
	}
	eng := p.Engine.Stats()
	return Stats{
		Port:             p.Port.Stats(),
		Queues:           queues,
		Engine:           eng.Table,
		Enricher:         p.Enricher.Stats(),
		BusPub:           pub,
		BusDrop:          drop,
		HubSent:          sent,
		HubDrop:          hdrop,
		DBPoints:         written,
		DBDropped:        dbDropped,
		SinkDecodeErrors: p.sinkDecodeErrors.Load(),
		SinkDrop:         p.sinkSub.Dropped(),
		DBWriteErrors:    p.sinkWriteErrors.Load(),
		ShutdownDrop:     p.shutdownDrop.Load(),
		TSSamples:        p.tsSamples.Load(),
		SeqSamples:       p.seqSamples.Load(),
		LossPoints:       p.lossPoints.Load(),
		TSRTT:            eng.TS,
		Seq:              eng.Seq,
		Sketch:           eng.Sketch,
		QueryCache:       p.DB.CacheStats(),
		Persist:          p.DB.PersistStats(),
		Remote:           remote,
		Fed:              agg,
	}
}

// Close releases resources (federation endpoints, bus, hub, DB, the packet
// buffer arena). The
// aggregator closes first so no remote batch races the DB shutdown, then
// the probe (persisting its spool ack watermark), then the local stages.
// On a persistent pipeline the DB close flushes and fsyncs the WAL so a
// clean shutdown loses nothing; the returned error is the first failure.
func (p *Pipeline) Close() error {
	var err error
	if p.Agg != nil {
		err = p.Agg.Close()
	}
	if p.Remote != nil {
		if e := p.Remote.Close(); err == nil {
			err = e
		}
	}
	p.Bus.Close()
	p.Hub.Close()
	if e := p.DB.Close(); err == nil {
		err = e
	}
	// The packet arena goes only when every buffer is home. A source that
	// outlived Run may still hold frames, or Run may never have drained
	// the queues; then the mapping stays until exit, which costs address
	// space and is no fault of this shutdown's.
	_ = p.Pool.Close()
	return err
}
