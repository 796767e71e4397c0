package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"ruru/internal/analytics"
	"ruru/internal/geo"
	"ruru/internal/nic"
	"ruru/internal/ruru"
	"ruru/internal/tsdb"
	"ruru/internal/web"
)

const (
	// inflightBound caps the measurements a closed loop lets sit between the
	// engine and storage. Bus publishers never block, so without it a
	// handshake-dense closed loop overruns the sink subscription and the
	// throughput it reports is a lossy one.
	inflightBound = 8192
	// probeSeconds is the query-free, paced tail every workload but live
	// measures tap-to-live on (live measures it over the whole run).
	probeSeconds = 2.5
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps = 3
	// queryHz is the dashboard workload's query schedule, and queryLate how
	// far behind its due time a query may start before it is dropped and
	// counted as failed.
	queryHz   = 5
	queryLate = time.Second
	// restQueries and restBudget bound the at-rest dashboard queries a
	// workload without a concurrent reader issues once it is quiescent.
	restQueries = 30
	restBudget  = 1500 * time.Millisecond
)

// runConfig is one workload run.
type runConfig struct {
	wl      *workload
	seed    int64
	seconds float64
	// scale shrinks the closed-loop lap, the history, the probe and the
	// at-rest queries; 1 in every measured run, 1/50 in the smoke test.
	scale  float64
	trace  bool
	outDir string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports.
type result struct {
	Correct   bool
	Attempted uint64
	Failed    uint64
	EndToEnd  map[string]metric
	PerLayer  map[string]metric
	// Counts are the exact, seed-determined outputs of the run that the
	// smoke test compares between the traced and the untraced pass.
	Counts   map[string]uint64
	Problems []string
}

// layer records a per-layer metric under the unit metrics.go declares.
func (res *result) layer(name string, v float64) {
	unit, ok := layerUnit[name]
	if !ok {
		res.problem("per-layer metric %s is not declared in metrics.go", name)
	}
	res.PerLayer[name] = metric{v, unit}
}

func (res *result) problem(format string, a ...any) {
	res.Correct = false
	res.Problems = append(res.Problems, fmt.Sprintf(format, a...))
}

// rig is an assembled pipeline under test with its traffic.
type rig struct {
	rc    *runConfig
	world *geo.World
	tr    *trace
	base  int64 // data-clock time of the first lap's zero
	dir   string
	p     *ruru.Pipeline
	srv   *httptest.Server
	stop  context.CancelFunc
	done  chan struct{}

	// Oracle of the preloaded history and, on trackers, of one lap.
	histCount uint64
	histSumMs float64
	ref       lapCounts

	st0 ruru.Stats // counters at the end of set-up; checks use deltas

	lap     int // next lap number, the re-keying offset
	bursts  uint64
	frames  []nic.Frame
	offered uint64
	waited  time.Duration // time spent on the in-flight bound
}

// lapCounts are the tracker outputs of one lap of the trace.
type lapCounts struct {
	ts, seq, loss, retrans uint64
}

// probeDur is the probe's length: never so short that no handshake could
// complete inside it (a scaled-down smoke run would otherwise see none).
func (rc *runConfig) probeDur() time.Duration {
	return max(time.Duration(probeSeconds*rc.scale*float64(time.Second)), 600*time.Millisecond)
}

// loopDur is the length of the timed loop: --seconds, or half of it in a
// traced run, whose other half goes to the traced pass.
func (rc *runConfig) loopDur() time.Duration {
	d := time.Duration(rc.seconds * float64(time.Second))
	if rc.trace {
		d /= 2
	}
	return d
}

// traceDuration is the generator time the workload's trace covers.
func (rc *runConfig) traceDuration() int64 {
	if !rc.wl.open {
		return int64(rc.wl.lapSeconds * rc.scale * 1e9)
	}
	d := rc.loopDur()
	if rc.wl.queries {
		d += rc.probeDur()
	}
	return d.Nanoseconds()
}

// setUp builds everything a run needs up to the first injected frame: world,
// rendered trace, reference lap, pipeline, history, restart.
func setUp(rc *runConfig, rep int) (*rig, error) {
	w := rc.wl
	world, err := newWorld(rc.seed)
	if err != nil {
		return nil, err
	}
	tr, err := renderTrace(w.genConfig(rc.seed, world, rc.traceDuration()))
	if err != nil {
		return nil, fmt.Errorf("render: %w", err)
	}
	if err := checkPin(rc, tr); err != nil {
		return nil, err
	}
	r := &rig{rc: rc, world: world, tr: tr, base: w.historyBase(rc.scale)}
	if w.trackers {
		if err := r.referenceLap(); err != nil {
			return nil, fmt.Errorf("reference lap: %w", err)
		}
	}
	r.dir = filepath.Join(rc.outDir, fmt.Sprintf("tmp-%d-%d", os.Getpid(), rep))
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	cfg := w.pipelineConfig(world, r.dir)
	if r.p, err = ruru.New(cfg); err != nil {
		return nil, err
	}
	pts := w.historyPoints(rc.scale)
	rng := rand.New(rand.NewSource(rc.seed))
	if w.restart {
		tail := int(restartTail * rc.scale)
		err := r.preload(rng, 0, pts-tail)
		if err == nil {
			_, err = r.p.DB.Checkpoint()
		}
		if err == nil {
			err = r.preload(rng, pts-tail, pts)
		}
		if err = errors.Join(err, r.p.Close()); err != nil {
			return nil, fmt.Errorf("history before restart: %w", err)
		}
		if r.p, err = ruru.New(cfg); err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		if ps := r.p.DB.PersistStats(); ps.RestoredPoints+ps.WALReplayedPoints != uint64(pts) {
			return nil, errors.Join(fmt.Errorf("restart recovered %d+%d points, want %d",
				ps.RestoredPoints, ps.WALReplayedPoints, pts), r.p.Close())
		}
	} else if err := r.preload(rng, 0, pts); err != nil {
		return nil, errors.Join(err, r.p.Close())
	}
	r.start()
	return r, nil
}

// start runs the pipeline and serves its HTTP API on a loopback listener.
func (r *rig) start() {
	ctx, cancel := context.WithCancel(context.Background())
	r.stop = cancel
	r.done = make(chan struct{})
	go func() {
		defer close(r.done)
		_ = r.p.Run(ctx) // returns ctx.Err() by contract
	}()
	r.srv = httptest.NewServer(web.NewServer(r.p))
	r.st0 = r.p.Stats()
}

// tearDown stops the pipeline and removes its directory.
func (r *rig) tearDown() error {
	if r.srv != nil {
		r.srv.Close()
	}
	if r.stop != nil {
		r.p.Port.Stop()
		r.stop()
		<-r.done
	}
	err := r.p.Close()
	if r.dir != "" {
		err = errors.Join(err, os.RemoveAll(r.dir))
	}
	return err
}

// preload writes history points [from, to) in sink-sized batches: historyRate
// points per second of data clock over 48 series, values drawn from rng. It goes
// through DB.WriteBatch with the sink's own point shape and not through
// Pipeline.Feed, whose spike detectors re-sort a full rolling window per
// point (80 µs each once a pair's window has filled): an hour of history
// would take half a minute of set-up.
func (r *rig) preload(rng *rand.Rand, from, to int) error {
	const srcs, dsts = 8, 6
	ep := func(c *geo.City) analytics.Endpoint {
		return analytics.Endpoint{CountryCode: c.CountryCode, Country: c.Country,
			City: c.Name, Lat: c.Lat, Lon: c.Lon, ASN: c.ASNs[0]}
	}
	cities := r.world.Cities
	batch := make([]tsdb.Point, 0, 64)
	for i := from; i < to; i++ {
		in := int64(1e6) + rng.Int63n(40e6)
		ex := int64(1e6) + rng.Int63n(200e6)
		e := analytics.Enriched{
			Time:       int64(i) * (1e9 / historyRate),
			InternalNs: in, ExternalNs: ex, TotalNs: in + ex,
			Src: ep(&cities[i%srcs]),
			Dst: ep(&cities[srcs+(i/srcs)%dsts]),
		}
		batch = append(batch, analytics.LatencyPoint(&e))
		r.histCount++
		r.histSumMs += float64(e.TotalNs) / 1e6
		if len(batch) == cap(batch) || i == to-1 {
			if _, err := r.p.DB.WriteBatch(batch); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			batch = batch[:0]
		}
	}
	return nil
}

// referenceLap runs one lap through a throwaway in-memory pipeline of the
// same configuration and keeps what the trackers made of it. The timed laps
// must each reproduce these counts: without re-keying, lap two onward reads
// as retransmissions.
func (r *rig) referenceLap() error {
	cfg := r.rc.wl.pipelineConfig(r.world, "")
	cfg.Persist = tsdb.PersistOptions{}
	p, err := ruru.New(cfg)
	if err != nil {
		return err
	}
	ref := &rig{rc: r.rc, world: r.world, tr: r.tr, base: r.base, p: p}
	ref.start()
	ref.injectLap()
	st, qerr := ref.quiesce()
	r.ref = lapCounts{ts: st.TSSamples, seq: st.SeqSamples, loss: st.LossPoints, retrans: st.Seq.Retrans}
	if qerr == nil && st.Engine.Completed != r.tr.completes {
		qerr = fmt.Errorf("completed %d, oracle %d", st.Engine.Completed, r.tr.completes)
	}
	if qerr == nil && (r.ref.ts < r.tr.tsEchoes || r.ref.ts > r.tr.tcpPkts) {
		qerr = fmt.Errorf("ts samples %d outside oracle [%d, %d]", r.ref.ts, r.tr.tsEchoes, r.tr.tcpPkts)
	}
	return errors.Join(qerr, ref.tearDown())
}

// stored is the handshake measurements in the TSDB: every point that is not
// a tracker sample or a loss event.
func stored(st *ruru.Stats) int64 {
	return int64(st.DBPoints) - int64(st.TSSamples) - int64(st.SeqSamples) - int64(st.LossPoints)
}

// ledgerGap is what the measurement ledger leaves unexplained: completed
// handshakes that are neither stored nor counted in a drop class.
func ledgerGap(st, st0 *ruru.Stats) int64 {
	return int64(st.Engine.Completed-st0.Engine.Completed) - (stored(st) - stored(st0)) -
		int64(st.SinkDrop-st0.SinkDrop) - int64(st.SinkDecodeErrors-st0.SinkDecodeErrors) -
		int64(st.DBDropped-st0.DBDropped) - int64(st.DBWriteErrors-st0.DBWriteErrors)
}

// refused is the frames the port turned away since st0: queue full,
// oversize, or no buffer.
func refused(st, st0 *ruru.Stats) uint64 {
	return (st.Port.Imissed - st0.Port.Imissed) + (st.Port.Ierrors - st0.Port.Ierrors) + (st.Port.NoMbuf - st0.Port.NoMbuf)
}

// injectLap pushes the next whole lap through the port as fast as it is
// taken, holding back while too many measurements are in flight.
func (r *rig) injectLap() {
	n := len(r.tr.pkts)
	for i := 0; i < n; i += burst {
		j := min(i+burst, n)
		r.frames = r.tr.fill(r.frames[:0], i, j, r.lap, r.base)
		r.p.Port.InjectBurst(r.frames)
		r.offered += uint64(j - i)
		if r.bursts++; r.bursts%16 == 0 {
			r.holdBack()
		}
	}
	r.lap++
}

func (r *rig) holdBack() {
	st := r.p.Stats()
	if ledgerGap(&st, &r.st0) < inflightBound {
		return
	}
	t0 := time.Now()
	for ledgerGap(&st, &r.st0) >= inflightBound {
		time.Sleep(50 * time.Microsecond)
		st = r.p.Stats()
	}
	r.waited += time.Since(t0)
}

// paced is what one open-loop injection reports.
type paced struct {
	lateMs []float64 // per burst: how late its first packet was injected
	slices []slice   // one per latencyWindow of wall time
}

// slice is the work and cost of one stretch of a timed loop: a lap of a
// closed loop, a latencyWindow of an open one. The gated rates are medians
// over slices, so that a neighbour's stall on a shared box costs one slice
// and not the figure; the whole-run means are reported beside them.
type slice struct {
	pkts      uint64
	wall, cpu time.Duration
}

// pace injects the next lap on a schedule: a packet is due at start plus its
// trace time divided by speed, whatever the pipeline is doing. It stops at
// the end of the trace or after maxWall, and tells the viewer how to turn
// measurement times back into due times before the first frame goes in.
func (r *rig) pace(speed float64, maxWall time.Duration, v *viewer, split int64) paced {
	pkts := r.tr.pkts
	shift := r.base + int64(r.lap)*r.tr.span
	var out paced
	start := time.Now()
	mark, markCPU, markPkts := time.Duration(0), cpuTime(), r.offered
	if v != nil {
		v.phase.Store(&phase{start: start, shift: shift, end: shift + r.tr.span, speed: speed, split: shift + split})
	}
	for i, n := 0, len(pkts); i < n; {
		elapsed := time.Since(start)
		if maxWall > 0 && elapsed >= maxWall {
			break
		}
		if elapsed-mark >= time.Duration(latencyWindow*float64(time.Second)) {
			cpu := cpuTime()
			out.slices = append(out.slices, slice{r.offered - markPkts, elapsed - mark, cpu - markCPU})
			mark, markCPU, markPkts = elapsed, cpu, r.offered
		}
		now := int64(float64(elapsed) * speed)
		j := i
		for j < n && j-i < burst && pkts[j].ts <= now {
			j++
		}
		if j == i {
			// Sleep, do not spin: a spinning generator would take one of
			// the box's cores and its cost would land in cpu_ns_per_pkt.
			// What the timer overshoots is reported as gen.late_*.
			time.Sleep(time.Duration(float64(pkts[i].ts-now) / speed))
			continue
		}
		out.lateMs = append(out.lateMs, float64(now-pkts[i].ts)/speed/1e6)
		r.frames = r.tr.fill(r.frames[:0], i, j, r.lap, r.base)
		r.p.Port.InjectBurst(r.frames)
		r.offered += uint64(j - i)
		i = j
	}
	r.lap++
	return out
}

// quiesce waits until every injected frame has been consumed and every
// completed handshake is accounted for, then for 50 ms without change.
func (r *rig) quiesce() (ruru.Stats, error) {
	deadline := time.Now().Add(20 * time.Second)
	var (
		last   ruru.Stats
		stable time.Time
	)
	for {
		st := r.p.Stats()
		idle := r.p.Pool.Available() == r.p.Pool.Size()
		now := time.Now()
		same := st.Engine.Completed == last.Engine.Completed && st.DBPoints == last.DBPoints &&
			st.HubSent+st.HubDrop == last.HubSent+last.HubDrop
		if !idle || !same || ledgerGap(&st, &r.st0) != 0 || stable.IsZero() {
			stable = now
		} else if now.Sub(stable) >= 50*time.Millisecond {
			return st, nil
		}
		if now.After(deadline) {
			return st, fmt.Errorf("not quiescent after 20s: pool %d/%d free, ledger gap %d (completed %d, stored %d, sink drop %d, db dropped %d, write errors %d, enricher sub dropped %d)",
				r.p.Pool.Available(), r.p.Pool.Size(), ledgerGap(&st, &r.st0),
				st.Engine.Completed-r.st0.Engine.Completed, stored(&st)-stored(&r.st0),
				st.SinkDrop, st.DBDropped, st.DBWriteErrors, st.Enricher.SubDropped)
		}
		last = st
		time.Sleep(time.Millisecond)
	}
}

// usage is a point-in-time reading of what the process has consumed.
type usage struct {
	wall   time.Time
	cpu    time.Duration
	mem    runtime.MemStats
	stats  ruru.Stats
	laps   uint64
	waited time.Duration
}

func (r *rig) usage() usage {
	u := usage{wall: time.Now(), cpu: cpuTime(), stats: r.p.Stats(), laps: uint64(r.lap), waited: r.waited}
	runtime.ReadMemStats(&u.mem)
	return u
}

// runWorkload is one whole run: set-up, the timed loop, the probe, the
// queries, every output check, the metrics.
func runWorkload(rc *runConfig) (*result, error) {
	res := &result{Correct: true, EndToEnd: map[string]metric{}, PerLayer: map[string]metric{},
		Counts: map[string]uint64{}}
	w := rc.wl

	// Set-up, several times over; the last one is kept. A traced run does
	// not report setup_s and sets up once.
	var (
		r      *rig
		setups []float64
	)
	for rep := 0; rep < setupReps && (rep == 0 || !rc.trace); rep++ {
		if r != nil {
			if err := r.tearDown(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", rep-1, err)
			}
			r = nil
			// Collect, but keep the pages: the next set-up then reuses
			// memory that is already faulted in, and what setup_s measures
			// is set-up work, not the host's page-fault path.
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if r, err = setUp(rc, rep); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if err := r.tearDown(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: tear down: %v\n", err)
		}
	}()
	debug.FreeOSMemory() // set-up garbage is neither the timed loop's to collect nor its peak RSS

	var (
		v      *viewer
		q      *querier
		late   []float64
		slices []slice
		qdone  chan struct{}
		runFor = rc.loopDur()
	)
	if w.open {
		var err error
		if v, err = dialViewer(r.srv.URL); err != nil {
			return nil, err
		}
		defer v.close()
	}

	// The timed loop.
	u0 := r.usage()
	if w.open {
		split := int64(0)
		if w.queries {
			split = runFor.Nanoseconds()
			q = newQuerier(r.srv.URL)
			qdone = make(chan struct{})
			go func() {
				defer close(qdone)
				q.schedule(time.Now(), runFor, r.base)
			}()
		}
		pc := r.pace(1, 0, v, split)
		late, slices = pc.lateMs, pc.slices
		if qdone != nil {
			<-qdone
		}
	} else {
		for deadline := time.Now().Add(runFor); ; {
			t0, c0 := time.Now(), cpuTime()
			r.injectLap()
			slices = append(slices, slice{uint64(len(r.tr.pkts)), time.Since(t0), cpuTime() - c0})
			if !time.Now().Before(deadline) {
				break
			}
		}
	}
	st, err := r.quiesce()
	u1 := r.usage()
	if err != nil {
		res.problem("timed loop: %v", err)
	}
	r.checkLoop(res, &st, u1.laps)
	r.checkStored(res, &st, u1.laps)

	// The probe: a paced, query-free stretch with one viewer attached. The
	// open loops already ran theirs (live is one; dashboard's is the tail
	// of its trace past the last query).
	if !w.open {
		if v, err = dialViewer(r.srv.URL); err != nil {
			return nil, err
		}
		defer v.close()
		pc := r.pace(w.probeSpeed, rc.probeDur(), v, 0)
		late = pc.lateMs
		if st, err = r.quiesce(); err != nil {
			res.problem("probe: %v", err)
		}
		if gap := ledgerGap(&st, &r.st0); gap != 0 {
			res.problem("probe: ledger gap %d", gap)
		}
	}
	v.settle(r.p)
	end := r.usage()

	// The dashboard query at rest, where no reader ran beside ingest.
	if q == nil {
		q = newQuerier(r.srv.URL)
		q.atRest(r.base+int64(r.lap)*r.tr.span, max(3, int(restQueries*rc.scale)))
	}

	r.endToEnd(res, setups, slices, &u0, &u1, v, q)
	r.boundary(res, &u0, &u1, &end, v, q, late)
	if rc.trace {
		if err := r.stageBudget(res, &u0, &u1); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	return res, nil
}

// checkLoop verifies the timed loop against the generator oracle and the
// ledger, and tallies attempted and failed operations.
func (r *rig) checkLoop(res *result, st *ruru.Stats, laps uint64) {
	w := r.rc.wl
	refused := refused(st, &r.st0)
	accepted := st.Port.Ipackets - r.st0.Port.Ipackets
	if accepted+refused != r.offered {
		res.problem("port: accepted %d + refused %d != offered %d", accepted, refused, r.offered)
	}
	oracle := laps * r.tr.completes
	completed := st.Engine.Completed - r.st0.Engine.Completed
	kept := uint64(stored(st) - stored(&r.st0))
	res.Attempted += r.offered + oracle
	res.Failed += refused
	if kept < oracle {
		res.Failed += oracle - kept
	}
	if gap := ledgerGap(st, &r.st0); gap != 0 {
		res.problem("ledger gap %d: completed %d, stored %d, sink drop %d, decode errors %d, db dropped %d, write errors %d",
			gap, completed, kept, st.SinkDrop, st.SinkDecodeErrors, st.DBDropped, st.DBWriteErrors)
	}
	switch {
	case completed > oracle:
		res.problem("completed %d handshakes, oracle has only %d", completed, oracle)
	case !w.open && (refused != 0 || completed != oracle || kept != oracle):
		// A closed loop is lossless or it is wrong.
		res.problem("closed loop lost work: refused %d frames; completed %d, stored %d, oracle %d (%d laps × %d)",
			refused, completed, kept, oracle, laps, r.tr.completes)
	case w.open && refused == 0 && completed != oracle:
		res.problem("no frame refused yet completed %d != oracle %d", completed, oracle)
	}
	if w.trackers {
		got := lapCounts{st.TSSamples, st.SeqSamples, st.LossPoints, st.Seq.Retrans}
		want := lapCounts{laps * r.ref.ts, laps * r.ref.seq, laps * r.ref.loss, laps * r.ref.retrans}
		if got != want {
			res.problem("trackers over %d laps: got ts/seq/loss/retrans %+v, want %+v (one lap %+v)", laps, got, want, r.ref)
		}
	}
	res.Counts["laps"] = laps
	res.Counts["packets"] = accepted
	res.Counts["tcp_packets"] = st.Engine.Packets - r.st0.Engine.Packets
	res.Counts["measurements"] = completed
	res.Counts["points"] = st.DBPoints - r.st0.DBPoints
}

// checkStored asks the TSDB itself what it holds: the count of latency
// points over the whole range must be history plus stored handshakes, and
// their mean the oracle's.
func (r *rig) checkStored(res *result, st *ruru.Stats, laps uint64) {
	out, err := r.p.DB.Execute(tsdb.Query{
		Measurement: "latency", Field: "total_ms",
		Start: 0, End: r.base + int64(laps+1)*r.tr.span,
		Aggs: []tsdb.AggKind{tsdb.AggCount, tsdb.AggMean},
	})
	if err != nil || len(out) != 1 || len(out[0].Buckets) != 1 {
		res.problem("count query: %v (%d series)", err, len(out))
		return
	}
	b := out[0].Buckets[0]
	kept := uint64(stored(st) - stored(&r.st0))
	if want := r.histCount + kept; uint64(b.Count) != want {
		res.problem("count(latency.total_ms) = %d, want %d history + %d stored", b.Count, r.histCount, kept)
	}
	// The mean is only pinned when nothing was lost: every lap then
	// contributes the same oracle sum.
	if kept == laps*r.tr.completes && b.Count > 0 {
		want := (r.histSumMs + float64(laps)*r.tr.sumMs) / float64(r.histCount+kept)
		if got := b.Aggs[tsdb.AggMean]; math.Abs(got-want) > 1e-9*math.Abs(want) {
			res.problem("mean(latency.total_ms) = %.12g, oracle %.12g", got, want)
		}
	}
}

// endToEnd fills the gated metrics.
func (r *rig) endToEnd(res *result, setups []float64, slices []slice, u0, u1 *usage, v *viewer, q *querier) {
	pkts := float64(u1.stats.Port.Ipackets - u0.stats.Port.Ipackets)
	points := float64(u1.stats.DBPoints - u0.stats.DBPoints)
	var rates, costs []float64
	for _, s := range slices {
		if s.pkts > 0 {
			rates = append(rates, float64(s.pkts)/s.wall.Seconds())
			costs = append(costs, float64(s.cpu)/float64(s.pkts))
		}
	}
	rate := median(rates)
	res.EndToEnd["setup_s"] = metric{median(setups), "s"}
	res.EndToEnd["pkts_per_s"] = metric{rate, "1/s"}
	// Points per packet is a property of the trace, so the point rate is
	// the packet rate in other units: the figure handshake is judged on.
	res.EndToEnd["points_per_s"] = metric{rate * points / pkts, "1/s"}
	res.EndToEnd["cpu_ns_per_pkt"] = metric{median(costs), "ns"}
	res.EndToEnd["peak_rss_mb"] = metric{peakRSSMB(), "MB"}

	res.Attempted += uint64(q.due)
	res.Failed += uint64(q.failed)
	if q.failed > 0 {
		res.problem("%d of %d queries failed or were dropped late", q.failed, q.due)
	}
	if len(v.probe) == 0 {
		res.problem("the viewer received no measurement on the probe")
	}
	if len(q.ms) == 0 {
		res.problem("no query completed")
	}
}

// boundary fills the counts read at layer boundaries after quiescence.
func (r *rig) boundary(res *result, u0, u1, end *usage, v *viewer, q *querier, late []float64) {
	st, st0 := &end.stats, &r.st0
	wall := u1.wall.Sub(u0.wall)
	pkts := float64(u1.stats.Port.Ipackets - u0.stats.Port.Ipackets)
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	set := res.layer

	set("fail_frac", frac(float64(res.Failed), float64(res.Attempted)))
	set("ledger_gap", math.Abs(float64(ledgerGap(st, st0))))
	set("nic.imissed", float64(st.Port.Imissed-st0.Port.Imissed))
	set("nic.nombuf", float64(st.Port.NoMbuf-st0.Port.NoMbuf))
	set("nic.refused", float64(refused(st, st0)))
	mark := 0.0
	for _, qs := range st.Queues {
		mark = max(mark, frac(float64(qs.Watermark), float64(qs.Capacity)))
	}
	set("nic.ring_watermark_frac", mark)
	set("core.completed_frac", frac(float64(u1.stats.Engine.Completed-st0.Engine.Completed), float64(u1.laps*r.tr.completes)))
	set("core.expired", float64(st.Engine.Expired-st0.Engine.Expired))
	set("sketch.sketch_only_flows", float64(st.Sketch.SketchOnlyFlows))
	set("mq.bus_drop", float64(st.BusDrop-st0.BusDrop))
	set("analytics.sub_dropped", float64(st.Enricher.SubDropped))
	set("analytics.lookup_miss_frac", frac(float64(st.Enricher.LookupMisses), 2*float64(st.Enricher.In)))
	set("ruru.sink_drop", float64(st.SinkDrop))
	set("ruru.backpressure_frac", frac(float64(u1.waited-u0.waited), float64(wall)))
	set("tsdb.series", float64(r.p.DB.SeriesCount()))
	set("tsdb.points", float64(st.DBPoints-st0.DBPoints))
	set("tsdb.dropped", float64(st.DBDropped-st0.DBDropped))
	set("tsdb.wal_fsyncs", float64(st.Persist.WALFsyncs-st0.Persist.WALFsyncs))
	qc := r.p.DB.CacheStats()
	set("tsdb.qcache_hit_frac", frac(float64(qc.Hits), float64(qc.Hits+qc.Misses)))
	set("tsdb.qcache_partial_frac", frac(float64(qc.PartialRefreshes), float64(qc.Hits+qc.Misses)))
	set("ws.hub_drop", float64(st.HubDrop-st0.HubDrop))
	set("ws.meas_per_frame", frac(float64(v.meas), float64(v.frames)))

	cpu := float64(u1.cpu - u0.cpu)
	set("gen.mean_pkts_per_s", frac(pkts, wall.Seconds()))
	set("proc.cpu_ns_per_pkt", frac(cpu, pkts))
	set("proc.cpu_util", frac(cpu, float64(wall)*float64(runtime.GOMAXPROCS(0))))
	set("proc.allocs_per_pkt", frac(float64(u1.mem.Mallocs-u0.mem.Mallocs), pkts))
	set("proc.alloc_bytes_per_pkt", frac(float64(u1.mem.TotalAlloc-u0.mem.TotalAlloc), pkts))
	set("proc.gc_cycles", float64(u1.mem.NumGC-u0.mem.NumGC))
	set("proc.gc_pause_ms", float64(u1.mem.PauseTotalNs-u0.mem.PauseTotalNs)/1e6)
	set("proc.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	set("proc.cpus", float64(runtime.NumCPU()))

	set("gen.late_p99_ms", quantile(late, 0.99))
	set("gen.late_max_ms", quantile(late, 1))
	set("gen.laps", float64(r.lap))
	set("gen.lap_pkts", float64(len(r.tr.pkts)))

	set("tail.tap_to_live_p50_ms", quantile(v.probe, 0.5))
	set("tail.tap_to_live_p90_ms", quantile(v.probe, 0.9))
	set("tail.query_p50_ms", quantile(q.ms, 0.5))
	set("tail.tap_to_live_p99_ms", quantile(v.probe, 0.99))
	set("tail.tap_to_live_p999_ms", quantile(v.probe, 0.999))
	set("tail.tap_to_live_samples", float64(len(v.probe)))
	set("tail.tap_to_live_under_query_p50_ms", quantile(v.underQuery, 0.5))
	set("tail.query_p90_ms", quantile(q.ms, 0.9))
	set("tail.query_p99_ms", quantile(q.ms, 0.99))
	set("tail.query_samples", float64(len(q.ms)))
}
