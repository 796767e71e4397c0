package ruru

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ruru/internal/analytics"
	"ruru/internal/core"
	"ruru/internal/fed"
	"ruru/internal/gen"
	"ruru/internal/geo"
	"ruru/internal/nic"
	"ruru/internal/pcap"
	"ruru/internal/tsdb"
	"ruru/internal/ws"
)

func newWorld(t testing.TB) *geo.World {
	t.Helper()
	w, err := geo.NewWorld(geo.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// drive streams g's trace into p's port and returns how many frames the
// port accepted: all of them on a Block-policy port.
func drive(t testing.TB, p *Pipeline, g *gen.Generator) int {
	t.Helper()
	n, err := nic.Drive(context.Background(), p.Port, 0, false, g.Source())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil GeoDB accepted")
	}
}

func TestPipelineBackpressureKnobs(t *testing.T) {
	// The full pipeline assembled with the ingest knobs that remain: Block
	// overflow (lossless source) and a poll burst smaller than the drive's,
	// so the source can outrun the workers, which under Drop would lose
	// frames.
	w := newWorld(t)
	p, err := New(Config{
		GeoDB:    w.DB(),
		Queues:   2,
		Burst:    16,
		Overflow: nic.Block,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(ctx)
	}()

	g, err := gen.New(gen.Config{
		Seed: 5, World: w, FlowRate: 300, Duration: 2e9, DataSegments: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	injected, err := nic.Drive(ctx, p.Port, 32, false, g.Source())
	if err != nil {
		t.Fatal(err)
	}
	if injected == 0 {
		t.Fatal("nothing injected")
	}
	cancel()
	<-done

	// Run drained before it returned: every completing handshake was
	// measured, and every measurement reached the ledger.
	completing := 0
	for _, tr := range g.Truths() {
		if tr.Completes {
			completing++
		}
	}
	st := p.Stats()
	if st.Engine.Completed != uint64(completing) {
		t.Fatalf("%d/%d completed (stats %+v)", st.Engine.Completed, completing, st)
	}
	if st.Accounted() != st.Engine.Completed {
		t.Fatalf("ledger does not balance: completed %d, accounted %d", st.Engine.Completed, st.Accounted())
	}
	if st.Port.Imissed != 0 || st.Port.NoMbuf != 0 {
		t.Fatalf("block-policy source lost frames: %+v", st.Port)
	}
	if st.Port.Ipackets != uint64(injected) {
		t.Fatalf("port saw %d packets, injected %d", st.Port.Ipackets, injected)
	}
	// The per-queue snapshot must account for every packet and expose the
	// ring introspection.
	var perQueue uint64
	for _, qs := range st.Queues {
		perQueue += qs.Ipackets
		if qs.Capacity != queueDepth || qs.Watermark == 0 || qs.Watermark > qs.Capacity {
			t.Fatalf("queue %+v, want capacity %d and a watermark within it", qs, queueDepth)
		}
	}
	if perQueue != st.Port.Ipackets {
		t.Fatalf("per-queue sum %d != port total %d", perQueue, st.Port.Ipackets)
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	w := newWorld(t)
	p, err := New(Config{
		GeoDB:    w.DB(),
		Queues:   4,
		Overflow: nic.Block,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(ctx)
	}()

	g, err := gen.New(gen.Config{
		Seed: 1, World: w, FlowRate: 300, Duration: 3e9,
		DataSegments: 1, UDPRate: 100, MidstreamRate: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	injected := drive(t, p, g)
	if injected == 0 {
		t.Fatal("nothing injected")
	}
	// Cancel with measurements still in the RX queues, on the bus and in
	// the sink: Run drains every stage before it returns.
	cancel()
	<-done
	completing := 0
	for _, tr := range g.Truths() {
		if tr.Completes {
			completing++
		}
	}

	st := p.Stats()
	if st.Engine.Completed != uint64(completing) {
		t.Fatalf("engine completed %d, want %d", st.Engine.Completed, completing)
	}
	if st.Enricher.Out != uint64(completing) {
		t.Fatalf("enricher out %d, want %d", st.Enricher.Out, completing)
	}
	if st.Port.Imissed != 0 || st.Port.NoMbuf != 0 {
		t.Fatalf("packet loss in un-paced test: %+v", st.Port)
	}
	// Loss accounting: every completed measurement must be stored or show
	// up in a named drop/error counter — nothing silent.
	if st.Engine.Completed != st.Accounted() {
		t.Fatalf("measurement ledger does not balance: completed=%d accounted=%d (stats %+v)",
			st.Engine.Completed, st.Accounted(), st)
	}
	if st.SinkDrop != 0 || st.SinkDecodeErrors != 0 || st.DBDropped != 0 || st.DBWriteErrors != 0 {
		t.Fatalf("unexpected sink losses: %+v", st)
	}

	// TSDB must answer a Grafana-style query over the virtual window.
	res, err := p.DB.Execute(tsdb.Query{
		Measurement: "latency", Field: "total_ms",
		Start: 0, End: 120e9,
		Aggs: []tsdb.AggKind{tsdb.AggCount, tsdb.AggMean, tsdb.AggMedian},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Buckets[0].Count != completing {
		t.Fatalf("query count = %+v, want %d", res, completing)
	}
	if mean := res[0].Buckets[0].Aggs[tsdb.AggMean]; mean <= 0 || mean > 2000 {
		t.Fatalf("mean latency %vms implausible", mean)
	}

	// Arc feed must hold recent measurements with real coordinates.
	arcs := p.RecentArcs(10)
	if len(arcs) == 0 {
		t.Fatal("no arcs")
	}
	for _, a := range arcs {
		if a.Src.Lat == 0 && a.Src.Lon == 0 {
			t.Fatalf("arc without coordinates: %+v", a)
		}
	}
}

// TestRunDrainCutOff cuts Run's drain off at once (a zero deadline) with
// thousands of measurements in flight: whatever the sink's drain did not
// reach is counted in ShutdownDrop, so the ledger balances when Run
// returns. The enricher and the remote-write probe are not cut off: the
// probe's spool holds every enriched measurement, although its aggregator
// never answers. TestPipelineEndToEnd covers the drain that completes.
func TestRunDrainCutOff(t *testing.T) {
	defer func(d time.Duration) { drainTimeout = d }(drainTimeout)
	drainTimeout = 0
	// A port nothing listens on: the probe only spools.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	w := newWorld(t)
	p, err := New(Config{GeoDB: w.DB(), Queues: 2, Overflow: nic.Block,
		RemoteWrite: fed.ProbeConfig{Addr: ln.Addr().String(), ID: "p1", SpoolDir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	g, err := gen.New(gen.Config{Seed: 7, World: w, FlowRate: 4000, Duration: 2e9})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(ctx)
	}()
	drive(t, p, g)
	cancel()
	<-done
	st := p.Stats()
	if st.Enricher.SubDropped != 0 || st.SinkDrop != 0 || st.Remote.Dropped != 0 {
		t.Fatalf("bus dropped measurements (enricher %d, sink %d, probe %d): the test overran a high-water mark",
			st.Enricher.SubDropped, st.SinkDrop, st.Remote.Dropped)
	}
	if st.Accounted() != st.Engine.Completed {
		t.Fatalf("ledger does not balance after Run: completed %d, accounted %d (%d stored, %d cut off)",
			st.Engine.Completed, st.Accounted(), st.DBPoints, st.ShutdownDrop)
	}
	if st.Remote.PointsOut != st.Enricher.Out || st.Enricher.Out != st.Engine.Completed {
		t.Fatalf("probe spooled %d of %d enriched (%d completed)",
			st.Remote.PointsOut, st.Enricher.Out, st.Engine.Completed)
	}
	t.Logf("%d completed, %d stored, %d cut off", st.Engine.Completed, st.DBPoints, st.ShutdownDrop)
}

func TestCloseReleasesPacketArena(t *testing.T) {
	w := newWorld(t)
	frames := func(p *Pipeline) int {
		g, err := gen.New(gen.Config{Seed: 2, World: w, FlowRate: 200, Duration: 1e9})
		if err != nil {
			t.Fatal(err)
		}
		return drive(t, p, g)
	}

	// Run to completion, then Close: every buffer is home, the arena goes.
	p, err := New(Config{GeoDB: w.DB(), Queues: 2})
	if err != nil {
		t.Fatal(err)
	}
	if frames(p) == 0 {
		t.Fatal("nothing injected")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.Run(ctx) // drains what is queued
	if p.Pool.Available() != p.Pool.Size() {
		t.Fatalf("pool %d/%d after Run", p.Pool.Available(), p.Pool.Size())
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if p.Port.InjectBurst([]nic.Frame{{Data: make([]byte, 64)}}) != 0 || p.Pool.Available() != 0 {
		t.Fatal("pool still hands out buffers after Close")
	}

	// Close with frames still queued (Run never drained them): no error,
	// and the memory those frames sit in stays mapped.
	p, err = New(Config{GeoDB: w.DB(), Queues: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := frames(p)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	bufs := make([]*nic.Buf, 1)
	for q := 0; q < 2; q++ {
		for {
			if k, _ := p.Port.RxBurst(q, bufs); k == 0 {
				break
			}
			if len(bufs[0].Bytes()) == 0 {
				t.Fatal("queued frame lost its memory")
			}
			nic.FreeBurst(bufs)
			n--
		}
	}
	if n != 0 {
		t.Fatalf("%d queued frames unaccounted for", n)
	}
}

func TestPipelineGroupByCityQueries(t *testing.T) {
	w := newWorld(t)
	p, err := New(Config{GeoDB: w.DB(), Queues: 2, Overflow: nic.Block})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go p.Run(ctx)

	// Clients only in Auckland (city 0), servers only in LA (city 1):
	// the deployment scenario.
	g, err := gen.New(gen.Config{
		Seed: 2, World: w, FlowRate: 200, Duration: 2e9,
		ClientCities: []int{0}, ServerCities: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, p, g)
	completing := 0
	for _, tr := range g.Truths() {
		if tr.Completes {
			completing++
		}
	}
	deadline := time.After(15 * time.Second)
	for p.Stats().DBPoints < uint64(completing) {
		select {
		case <-deadline:
			t.Fatalf("timeout: %+v", p.Stats())
		case <-time.After(10 * time.Millisecond):
		}
	}
	res, err := p.DB.Execute(tsdb.Query{
		Measurement: "latency", Field: "external_ms",
		Start: 0, End: 120e9, GroupBy: "src_city",
		Aggs: []tsdb.AggKind{tsdb.AggCount, tsdb.AggMedian},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Group != "Auckland" {
		t.Fatalf("groups: %+v", res)
	}
	// AKL→LA external RTT: ~10,480 km → propagation RTT ≈ 2·10480/200·1.8
	// ≈ 190ms; with last-mile it lands somewhere in 150..400ms.
	med := res[0].Buckets[0].Aggs[tsdb.AggMedian]
	if med < 100 || med > 500 {
		t.Fatalf("AKL→LAX median external %vms implausible", med)
	}
}

// TestPipelineArcRingWraps: one city pair routes to one sink shard, whose
// arc ring keeps the newest arcsBuffer measurements, oldest first.
func TestPipelineArcRingWraps(t *testing.T) {
	w := newWorld(t)
	p, err := New(Config{GeoDB: w.DB()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const total = arcsBuffer + 12
	es := make([]analytics.Enriched, total)
	for i := range es {
		es[i] = analytics.Enriched{
			Time: int64(i) * 1e9, TotalNs: 145e6, InternalNs: 15e6, ExternalNs: 130e6,
			Src: analytics.Endpoint{City: "Auckland", CountryCode: "NZ", Lat: -36.85, Lon: 174.76},
			Dst: analytics.Endpoint{City: "Los Angeles", CountryCode: "US", Lat: 34.05, Lon: -118.24},
		}
	}
	publishEnriched(t, p, es[:100]...)
	if st := p.Stats(); st.DBPoints != 100 {
		t.Fatalf("points = %d", st.DBPoints)
	}
	arcs := p.RecentArcs(0)
	if len(arcs) != 100 {
		t.Fatalf("arcs = %d", len(arcs))
	}
	publishEnriched(t, p, es[100:]...)
	arcs = p.RecentArcs(0)
	if len(arcs) != arcsBuffer {
		t.Fatalf("wrapped arcs = %d, want %d", len(arcs), arcsBuffer)
	}
	if arcs[len(arcs)-1].Time != (total-1)*1e9 {
		t.Fatalf("newest arc time = %d, want %d", arcs[len(arcs)-1].Time, int64(total-1)*1e9)
	}
	if arcs[0].Time != 12e9 {
		t.Fatalf("oldest arc time = %d, want 12e9", arcs[0].Time)
	}
}

func TestPipelineSpikeDetection(t *testing.T) {
	w := newWorld(t)
	p, err := New(Config{GeoDB: w.DB()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	es := make([]analytics.Enriched, 501)
	for i := range es {
		es[i] = analytics.Enriched{
			Time: int64(i) * 1e8, TotalNs: 145e6 + int64(i%7)*1e6,
			Src: analytics.Endpoint{City: "Auckland"},
			Dst: analytics.Endpoint{City: "Los Angeles"},
		}
	}
	es[500].Time = 501e8
	es[500].TotalNs = 4145e6 // the firewall glitch
	publishEnriched(t, p, es...)
	evs := p.Spikes.Events()
	if len(evs) != 1 {
		t.Fatalf("%d spike events", len(evs))
	}
	if evs[0].Value != 4145e6 {
		t.Fatalf("event = %+v", evs[0])
	}
}

func TestPipelinePcapRoundTrip(t *testing.T) {
	// The replay path an operator uses: generate → pcap → read back →
	// inject → measure. Results must be identical to direct injection.
	w := newWorld(t)
	mkGen := func() *gen.Generator {
		g, err := gen.New(gen.Config{Seed: 31, World: w, FlowRate: 100, Duration: 2e9, UDPRate: 20})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	var buf bytes.Buffer
	if _, err := mkGen().WritePcap(&buf); err != nil {
		t.Fatal(err)
	}

	p, err := New(Config{GeoDB: w.DB(), Queues: 2, Overflow: nic.Block})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go p.Run(ctx)

	r, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	injected, err := nic.Drive(ctx, p.Port, 0, false, r.Source())
	if err != nil {
		t.Fatal(err)
	}
	completing := 0
	g2 := mkGen()
	var pk gen.Packet
	for g2.Next(&pk) {
	}
	for _, tr := range g2.Truths() {
		if tr.Completes {
			completing++
		}
	}
	deadline := time.After(15 * time.Second)
	for p.Stats().DBPoints < uint64(completing) {
		select {
		case <-deadline:
			t.Fatalf("timeout: %d/%d points after %d injected", p.Stats().DBPoints, completing, injected)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestPipelineWebSocketLiveFeedFromPackets(t *testing.T) {
	// Full path: packets → engine → bus → enricher → hub → real WS client.
	w := newWorld(t)
	p, err := New(Config{GeoDB: w.DB(), Queues: 2, Overflow: nic.Block})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go p.Run(ctx)

	srv := httptest.NewServer(p.Hub)
	defer srv.Close()
	client, err := ws.Dial("ws://" + strings.TrimPrefix(srv.URL, "http://") + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	deadline := time.Now().Add(2 * time.Second)
	for p.Hub.LiveClients() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no hub client")
		}
		time.Sleep(5 * time.Millisecond)
	}

	g, err := gen.New(gen.Config{Seed: 37, World: w, FlowRate: 100, Duration: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	go nic.Drive(ctx, p.Port, 0, false, g.Source())

	// Frames are JSON arrays: each sink worker coalesces up to SinkBatch
	// measurements per broadcast.
	client.SetReadDeadline(time.Now().Add(10 * time.Second))
	received := 0
	for received < 20 {
		op, msg, err := client.ReadMessage()
		if err != nil {
			t.Fatalf("after %d measurements: %v", received, err)
		}
		if op != ws.OpText {
			t.Fatalf("opcode %v", op)
		}
		var batch []analytics.Enriched
		if err := json.Unmarshal(msg, &batch); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		if len(batch) == 0 {
			t.Fatal("empty broadcast frame")
		}
		for _, e := range batch {
			if e.TotalNs <= 0 || e.Src.City == "" {
				t.Fatalf("incomplete measurement: %+v", e)
			}
			received++
		}
	}
}

func TestPipelineContinuousRTT(t *testing.T) {
	// TrackTimestamps: packets with TS options → TSTracker → geo-tagged
	// "rtt_stream" points in the TSDB.
	w := newWorld(t)
	p, err := New(Config{
		GeoDB: w.DB(), Queues: 2, Overflow: nic.Block,
		TrackTimestamps: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go p.Run(ctx)

	g, err := gen.New(gen.Config{
		Seed: 41, World: w, FlowRate: 100, Duration: 2e9,
		DataSegments: 2, DataSpacing: 300e6,
		MidstreamRate:     20,
		EmitTCPTimestamps: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, p, g)

	deadline := time.After(15 * time.Second)
	for p.Stats().TSSamples < 100 {
		select {
		case <-deadline:
			t.Fatalf("too few TS samples: %+v", p.Stats())
		case <-time.After(10 * time.Millisecond):
		}
	}
	// Give in-flight samples a moment, then query the stream measurement.
	time.Sleep(100 * time.Millisecond)
	res, err := p.DB.Execute(tsdb.Query{
		Measurement: "rtt_stream", Field: "rtt_ms",
		Start: 0, End: 120e9,
		GroupBy: "echoer_city",
		Aggs:    []tsdb.AggKind{tsdb.AggCount, tsdb.AggMedian},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 2 {
		t.Fatalf("only %d echoer cities", len(res))
	}
	totalCount := 0
	for _, r := range res {
		if r.Group == "" || r.Group == "Unknown" {
			t.Fatalf("unenriched group %q", r.Group)
		}
		totalCount += r.Buckets[0].Count
	}
	if totalCount < 100 {
		t.Fatalf("only %d stream points", totalCount)
	}
}

// TestTSSampleWriteErrorAccounting pins the onTSSample accounting fix: a
// stream sample that can no longer be written (DB closed under a late
// queue worker) must land in DBWriteErrors, not count as stored.
func TestTSSampleWriteErrorAccounting(t *testing.T) {
	w := newWorld(t)
	p, err := New(Config{GeoDB: w.DB(), Queues: 1, TrackTimestamps: true})
	if err != nil {
		t.Fatal(err)
	}
	s := &core.TSSample{RTT: 2e6, At: 1e9}
	p.onTSSample(s)
	if got := p.Stats().TSSamples; got != 1 {
		t.Fatalf("TSSamples = %d, want 1", got)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p.onTSSample(s)
	st := p.Stats()
	if st.TSSamples != 1 {
		t.Fatalf("TSSamples counted an unwritable sample: %d", st.TSSamples)
	}
	if st.DBWriteErrors != 1 {
		t.Fatalf("DBWriteErrors = %d, want 1", st.DBWriteErrors)
	}
}

func TestPipelineFloodDetectionViaExpiry(t *testing.T) {
	// SYN-flood packets (never answered) must travel: port → engine →
	// expiry → flood detector, at the daemon's settings. The table evicts
	// an idle entry 10-20s after its last packet (one sweep pass per 10s
	// timeout), so the trace runs 20s past the attack's end for every
	// attack entry to expire within it.
	w := newWorld(t)
	p, err := New(Config{GeoDB: w.DB(), Queues: 2, Overflow: nic.Block})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go p.Run(ctx)

	g, err := gen.New(gen.Config{
		Seed: 3, World: w, FlowRate: 20, Duration: 45e9,
		Floods: []gen.FloodSpec{
			// Ambient internet scanning noise: a few unanswered SYNs/s
			// throughout, which is what the detector's baseline learns.
			{Start: 0, Duration: 45e9, Rate: 5, SrcCity: 7, DstCity: 2},
			// The attack.
			{Start: 10e9, Duration: 3e9, Rate: 2000, SrcCity: 4, DstCity: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, p, g)

	// Wait until the engine has drained and evicted the flood entries.
	deadline := time.After(15 * time.Second)
	for {
		st := p.Stats()
		if st.Engine.ExpiredAwait > 6000 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("flood entries never expired: %+v", st.Engine)
		case <-time.After(20 * time.Millisecond):
		}
	}
	p.Flood.Flush()
	if evs := p.Flood.Events(); len(evs) == 0 {
		t.Fatal("SYN flood not detected")
	}
}
