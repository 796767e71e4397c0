package ruru

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ruru/internal/analytics"
	"ruru/internal/mq"
	"ruru/internal/tsdb"
)

// enrichedPayloads pre-marshals one enriched measurement per city pair so
// tests can publish straight onto the enriched topic (the bus does not copy
// payloads and the sink treats them as read-only, so reuse is safe).
func enrichedPayloads(pairs int) [][]byte {
	out := make([][]byte, pairs)
	for i := range out {
		e := analytics.Enriched{
			Time: 1e9, InternalNs: 15e6, ExternalNs: 130e6, TotalNs: 145e6,
			Src: analytics.Endpoint{City: fmt.Sprintf("SrcCity%d", i), CountryCode: "NZ",
				Lat: -36.85, Lon: 174.76, ASN: uint32(64000 + i)},
			Dst: analytics.Endpoint{City: fmt.Sprintf("DstCity%d", i), CountryCode: "US",
				Lat: 34.05, Lon: -118.24, ASN: 64500},
		}
		out[i] = analytics.MarshalEnriched(nil, &e)
	}
	return out
}

// publishEnriched runs p, publishes es on the enriched topic as the
// enricher publishes them (the one way measurements reach the sink), then
// cancels Run and waits for it. Run drains the sink before it returns, so
// by then every measurement's TSDB point, arc and detector offer is in
// place; the helper fails the test if the ledger lost any of them to a
// subscription drop, a decode error or the drain deadline.
func publishEnriched(t testing.TB, p *Pipeline, es ...analytics.Enriched) {
	t.Helper()
	before := p.Stats()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(ctx)
	}()
	for i := range es {
		p.Bus.Publish(mq.Message{Topic: TopicEnriched, Payload: analytics.MarshalEnriched(nil, &es[i])})
	}
	cancel()
	<-done
	st := p.Stats()
	if st.SinkDrop != before.SinkDrop || st.SinkDecodeErrors != before.SinkDecodeErrors ||
		st.ShutdownDrop != before.ShutdownDrop {
		t.Fatalf("sink lost measurements: drop %d→%d, decode errors %d→%d, shutdown drop %d→%d",
			before.SinkDrop, st.SinkDrop, before.SinkDecodeErrors, st.SinkDecodeErrors,
			before.ShutdownDrop, st.ShutdownDrop)
	}
	if n := st.Accounted() - before.Accounted(); n != uint64(len(es)) {
		t.Fatalf("sink accounted %d of %d published", n, len(es))
	}
}

func TestSinkShardedLosslessAndAccounted(t *testing.T) {
	// The tentpole contract: at a sustained load driven straight into the
	// enriched topic, the sharded sink stores every measurement — zero
	// subscription drops — and every decode failure is counted, so the
	// ledger published == stored + named-losses balances exactly. One
	// worker is the unsharded topology the pool replaced.
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { testSinkLossless(t, workers) })
	}
}

func testSinkLossless(t *testing.T, workers int) {
	w := newWorld(t)
	p, err := New(Config{GeoDB: w.DB(), Queues: 1, SinkWorkers: workers, SinkBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(ctx)
	}()

	const (
		total   = 1 << 16
		garbage = 64
	)
	payloads := enrichedPayloads(32)
	// Producer flow control: keep the in-flight window under half the sink
	// subscription HWM (1<<15), so overflow would indicate the sink losing
	// ground it never recovers — any HWM drop fails the test.
	published := 0
	for published < total {
		st := p.Stats()
		if uint64(published)-st.Accounted() > 1<<14 {
			time.Sleep(100 * time.Microsecond)
			continue
		}
		p.Bus.Publish(mq.Message{Topic: TopicEnriched, Payload: payloads[published%len(payloads)]})
		published++
	}
	// Malformed enriched messages must be counted, not silently skipped.
	for i := 0; i < garbage; i++ {
		p.Bus.Publish(mq.Message{Topic: TopicEnriched, Payload: []byte{0xff, 0x00, 0x01}})
	}

	deadline := time.After(30 * time.Second)
	for {
		st := p.Stats()
		if st.Accounted() >= total+garbage {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("sink never drained: %+v", st)
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	<-done

	st := p.Stats()
	if st.SinkDrop != 0 {
		t.Fatalf("sink dropped %d measurements at the HWM", st.SinkDrop)
	}
	if st.DBPoints != total {
		t.Fatalf("stored %d/%d points", st.DBPoints, total)
	}
	if st.SinkDecodeErrors != garbage {
		t.Fatalf("decode errors = %d, want %d", st.SinkDecodeErrors, garbage)
	}
	if st.DBDropped != 0 {
		t.Fatalf("unexpected retention drops: %d", st.DBDropped)
	}
	// Every series landed, one per city pair.
	res, err := p.DB.Execute(tsdb.Query{
		Measurement: "latency", Field: "total_ms", Start: 0, End: 2e9,
		GroupBy: "src_city", Aggs: []tsdb.AggKind{tsdb.AggCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(payloads) {
		t.Fatalf("%d src_city groups, want %d", len(res), len(payloads))
	}
	counted := 0
	for _, r := range res {
		counted += r.Buckets[0].Count
	}
	if counted != total {
		t.Fatalf("query counts %d/%d points", counted, total)
	}
}

func TestSinkConcurrencyStress(t *testing.T) {
	// Race contract for the whole sink stage (run under -race in CI):
	// several producers publishing onto the enriched topic, the sharded
	// workers feeding spike/surge/flood detectors and per-shard arc rings,
	// while Stats, RecentArcs, the detectors' Events and TSDB queries
	// all read concurrently.
	w := newWorld(t)
	p, err := New(Config{GeoDB: w.DB(), Queues: 1, SinkWorkers: 4, SinkBatch: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(ctx)
	}()

	const (
		producers   = 4
		perProducer = 8000
	)
	payloads := enrichedPayloads(16)
	var wg sync.WaitGroup
	for n := 0; n < producers; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				p.Bus.Publish(mq.Message{Topic: TopicEnriched, Payload: payloads[(n+i)%len(payloads)]})
				if i%97 == 0 { // sprinkle malformed frames in
					p.Bus.Publish(mq.Message{Topic: TopicEnriched, Payload: []byte("junk")})
				}
			}
		}(n)
	}
	readersStop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-readersStop:
				return
			default:
				p.Stats()
				p.RecentArcs(100)
				p.Spikes.Events()
				p.Surge.Events()
				p.Flood.Events()
				p.DB.Execute(tsdb.Query{
					Measurement: "latency", Field: "total_ms",
					Start: 0, End: 10e9, GroupBy: "src_city",
					Aggs: []tsdb.AggKind{tsdb.AggCount, tsdb.AggP95},
				})
			}
		}
	}()
	wg.Wait()

	published := uint64(producers*perProducer) + uint64(producers)*(perProducer/97+1)
	deadline := time.After(30 * time.Second)
	for {
		st := p.Stats()
		if st.Accounted() >= published {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("ledger never balanced: %+v (published %d)", st, published)
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(readersStop)
	readers.Wait()
	cancel()
	<-done

	st := p.Stats()
	if got := st.Accounted(); got != published {
		t.Fatalf("ledger: accounted %d, want %d (stats %+v)", got, published, st)
	}
	if st.SinkDecodeErrors == 0 {
		t.Fatal("junk frames were not counted as decode errors")
	}
	if arcs := p.RecentArcs(0); len(arcs) == 0 {
		t.Fatal("no arcs retained")
	}
}

func TestSinkRetentionDropAccounted(t *testing.T) {
	// A point behind the retention horizon is refused at write time and
	// must surface in Stats().DBDropped (previously discarded silently).
	w := newWorld(t)
	p, err := New(Config{GeoDB: w.DB(), Retention: 10e9})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	e := analytics.Enriched{
		TotalNs: 145e6,
		Src:     analytics.Endpoint{City: "Auckland"},
		Dst:     analytics.Endpoint{City: "Los Angeles"},
	}
	late := e
	e.Time = 100e9
	late.Time = 1e9 // far behind the horizon set by the first point
	publishEnriched(t, p, e, late)
	st := p.Stats()
	if st.DBPoints != 1 || st.DBDropped != 1 {
		t.Fatalf("DBPoints=%d DBDropped=%d, want 1/1", st.DBPoints, st.DBDropped)
	}
}
