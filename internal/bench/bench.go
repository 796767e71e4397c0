// Package bench defines the microbenchmark suite: one row per hot path of
// the pipeline, run as BenchmarkSpecs by the repo-root bench_test.go under
// `go test -bench`. scripts/bench_compare.sh builds that test binary at a
// base commit and at HEAD, runs the two alternately and gates each row's
// median against the base's quartiles. The pipeline benchmark is the
// benchmark/ module.
package bench

import (
	"context"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"math/rand"
	"net/netip"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ruru/internal/analytics"
	"ruru/internal/core"
	"ruru/internal/gen"
	"ruru/internal/geo"
	"ruru/internal/mq"
	"ruru/internal/nic"
	"ruru/internal/pkt"
	"ruru/internal/rss"
	"ruru/internal/ruru"
	"ruru/internal/sketch"
	"ruru/internal/tsdb"
)

// Spec is one suite entry.
type Spec struct {
	Name string
	F    func(b *testing.B)
}

// Specs returns the suite: one entry per pipeline hot path — ingest
// hand-off, packet processing, sink drain, DB writes (string-keyed and
// interned-ref entry points), WAL-logged writes, tier-served queries and
// their JSON encoding.
func Specs() []Spec {
	return []Spec{
		{Name: "ingest/inject-burst", F: benchInjectBurst},
		{Name: "rss/hash-ipv4", F: func(b *testing.B) { benchHashTuple(b, 0) }},
		{Name: "rss/hash-ipv6", F: func(b *testing.B) { benchHashTuple(b, 1) }},
		{Name: "process/handshake", F: benchHandshake},
		{Name: "core/tsrtt", F: benchTSRTT},
		{Name: "core/seq-rtt", F: benchSeqRTT},
		{Name: "core/flow-hash-ipv4", F: func(b *testing.B) { benchFlowHash(b, 0) }},
		{Name: "core/flow-hash-ipv6", F: func(b *testing.B) { benchFlowHash(b, 1) }},
		{Name: "core/trackers-22k", F: benchTrackers22k},
		{Name: "sink/consume", F: benchSinkConsume},
		{Name: "db/write-batch", F: benchDBWriteBatch},
		{Name: "db/write-batch-ref-20k", F: benchDBWriteBatchRef20k},
		{Name: "db/write-batch-ref-steady", F: benchDBWriteBatchRefSteady},
		{Name: "wal/write-interval", F: benchWALWrite},
		{Name: "query/rollup", F: benchRollupQuery},
		{Name: "query/cached", F: benchCachedQuery},
		{Name: "query/cached-40k", F: benchCachedQuery40k},
		{Name: "query/encode", F: benchQueryEncode},
		{Name: "sketch/observe-churn", F: benchSketchObserveChurn},
		{Name: "sketch/topk", F: benchSketchTopK},
	}
}

// --- suite bodies -----------------------------------------------------------

// benchInjectBurst: InjectBurst (classify, copy, stage) → RSS queue →
// RxBurst → recycle, batched, the way core's queue worker does it: each
// drained burst goes back to the pool with one FreeBurst, so the order the
// pool hands buffers out in (and with it how much of the 16 MiB arena the
// loop walks) is part of what is timed.
func benchInjectBurst(b *testing.B) {
	const burst = 64
	pool := nic.NewMempool(8192, 2048)
	defer pool.Close() // every buffer is home again when the loop ends
	port, err := nic.NewPort(nic.PortConfig{Queues: 1, QueueDepth: 4096, Pool: pool})
	if err != nil {
		b.Fatal(err)
	}
	spec := &pkt.TCPFrameSpec{
		SrcMAC: pkt.MAC{1}, DstMAC: pkt.MAC{2},
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("192.0.2.1"),
		SrcPort: 40000, DstPort: 443, Flags: pkt.TCPSyn, Window: 65535,
	}
	buf := make([]byte, 128)
	n, err := pkt.BuildTCPFrame(buf, spec)
	if err != nil {
		b.Fatal(err)
	}
	f := buf[:n]
	frames := make([]nic.Frame, burst)
	for i := range frames {
		frames[i] = nic.Frame{Data: f, TS: int64(i)}
	}
	bufs := make([]*nic.Buf, burst)
	b.ReportAllocs()
	b.SetBytes(int64(len(f)))
	b.ResetTimer()
	for i := 0; i < b.N; i += burst {
		port.InjectBurst(frames)
		got, _ := port.RxBurst(0, bufs)
		nic.FreeBurst(bufs[:got])
	}
}

// hashTuple is one 4-tuple of the hash benchmark's input.
type hashTuple struct {
	src, dst netip.Addr
	sp, dp   uint16
}

// genTuples renders n distinct TCP 4-tuples of one address family from
// internal/gen, the traffic the pipeline benchmark injects.
func genTuples(b *testing.B, n int, ipv6Fraction float64) []hashTuple {
	w, err := geo.NewWorld(geo.WorldOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.New(gen.Config{
		Seed: 1, World: w, FlowRate: 10000, Duration: 1e15, IPv6Fraction: ipv6Fraction,
	})
	if err != nil {
		b.Fatal(err)
	}
	var (
		p      gen.Packet
		parser pkt.Parser
		sum    pkt.Summary
		seen   = make(map[hashTuple]bool, n)
		tuples = make([]hashTuple, 0, n)
	)
	for len(tuples) < n && g.Next(&p) {
		if parser.Parse(p.Frame, &sum) != nil || !sum.IsTCP() {
			continue
		}
		t := hashTuple{sum.Src(), sum.Dst(), sum.TCP.SrcPort, sum.TCP.DstPort}
		if !seen[t] {
			seen[t] = true
			tuples = append(tuples, t)
		}
	}
	if len(tuples) < n {
		b.Fatalf("generator gave %d distinct tuples, want %d", len(tuples), n)
	}
	return tuples
}

var sinkHash uint32

// benchHashTuple: the software RSS hash over 4096 distinct generated
// tuples. One repeated tuple — what this measured before — is a loop the
// branch predictor learns by heart: the bit-serial hash read 140 ns so and
// 415–480 ns on the pipeline benchmark's traffic.
func benchHashTuple(b *testing.B, ipv6Fraction float64) {
	tuples := genTuples(b, 4096, ipv6Fraction)
	h := rss.NewSymmetric()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := &tuples[i%len(tuples)]
		sinkHash = h.HashTuple(t.src, t.dst, t.sp, t.dp)
	}
}

// flowSeed keys core.FlowHash in every row that indexes a flow table: the
// engine hashes each TCP packet once with its queue's seed and indexes all
// its tables with that value, and so do these rows.
const flowSeed = uint64(0x9e3779b97f4a7c15)

// benchHandshake: parse + flow hash + handshake-table processing per packet,
// on a generated mix with data segments, UDP noise and midstream flows.
func benchHandshake(b *testing.B) {
	w, err := geo.NewWorld(geo.WorldOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.New(gen.Config{
		Seed: 1, World: w,
		FlowRate: 10000, Duration: 1e15,
		DataSegments: 2, UDPRate: 2000, MidstreamRate: 200,
	})
	if err != nil {
		b.Fatal(err)
	}
	trace := make([]gen.TracePacket, 0, 50000)
	var p gen.Packet
	for len(trace) < 50000 && g.Next(&p) {
		frame := make([]byte, len(p.Frame))
		copy(frame, p.Frame)
		trace = append(trace, gen.TracePacket{TS: p.TS, Frame: frame})
	}
	table := core.NewHandshakeTable(core.TableConfig{Capacity: 1 << 17, Timeout: 1 << 62})
	var parser pkt.Parser
	var sum pkt.Summary
	var m core.Measurement
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := &trace[i%len(trace)]
		if err := parser.Parse(tp.Frame, &sum); err != nil || !sum.IsTCP() {
			continue
		}
		table.Process(&sum, tp.TS, uint32(core.FlowHash(flowSeed, &sum)), &m)
	}
}

// benchSummary builds a parsed TCP summary directly and its flow hash (the
// trackers' input — parse cost is measured by process/handshake, these
// entries isolate the per-packet tracker work the continuous-RTT path adds).
func benchSummary(hostA, hostB byte, sp, dp uint16, seq, ack uint32, payload []byte) (*pkt.Summary, uint32) {
	s := &pkt.Summary{}
	s.IP4.Src = netip.AddrFrom4([4]byte{10, 0, 0, hostA})
	s.IP4.Dst = netip.AddrFrom4([4]byte{192, 0, 2, hostB})
	s.Decoded = pkt.LayerEthernet | pkt.LayerIPv4 | pkt.LayerTCP
	s.TCP = pkt.TCP{SrcPort: sp, DstPort: dp, Flags: pkt.TCPAck, Seq: seq, Ack: ack}
	s.Payload = payload
	return s, uint32(core.FlowHash(flowSeed, s))
}

// benchTSRTT: the timestamp tracker's per-packet cost — a TSval insert and
// its echo match per op, alternating over 256 live flows.
func benchTSRTT(b *testing.B) {
	const flows = 256
	tr := core.NewTSTracker(core.TSConfig{Capacity: 1 << 15})
	type flow struct {
		data, echo *pkt.Summary
		hash       uint32
	}
	var fl [flows]flow
	var opt [pkt.TimestampOptionLen]byte
	for i := range fl {
		d, h := benchSummary(byte(i), 1, uint16(5000+i), 443, 1000, 1, nil)
		d.TCP.Options = append([]byte(nil), pkt.PutTimestampOption(opt[:], 100, 50)...)
		e, _ := benchSummary(1, byte(i), 443, uint16(5000+i), 1, 1000, nil)
		e.TCP.Options = append([]byte(nil), pkt.PutTimestampOption(opt[:], 900, 100)...)
		fl[i] = flow{data: d, echo: e, hash: h}
	}
	var sample core.TSSample
	b.ReportAllocs()
	b.ResetTimer()
	ts := int64(0)
	for i := 0; i < b.N; i++ {
		f := &fl[i%flows]
		ts += 2
		tr.Process(f.data, ts, f.hash, &sample)
		tr.Process(f.echo, ts+1, f.hash, &sample)
	}
	b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "pps")
}

// benchSeqRTT: the sequence tracker's per-packet cost — a data edge insert
// and its covering ACK per op (one RTT sample), alternating over 256 live
// flows; the hot path is //ruru:noalloc and allocs/op reads 0.
func benchSeqRTT(b *testing.B) {
	const flows = 256
	tr := core.NewSeqTracker(core.SeqConfig{Capacity: 1 << 15})
	type flow struct {
		data, ackp *pkt.Summary
		hash       uint32
	}
	var fl [flows]flow
	payload := make([]byte, 100)
	for i := range fl {
		d, h := benchSummary(byte(i), 1, uint16(5000+i), 443, 1000, 1, payload)
		a, _ := benchSummary(1, byte(i), 443, uint16(5000+i), 1, 1100, nil)
		fl[i] = flow{data: d, ackp: a, hash: h}
	}
	var sample core.SeqSample
	var loss core.LossEvent
	b.ReportAllocs()
	b.ResetTimer()
	ts := int64(0)
	for i := 0; i < b.N; i++ {
		f := &fl[i%flows]
		ts += 2
		f.data.TCP.Seq += 100
		f.ackp.TCP.Ack += 100
		tr.Process(f.data, ts, f.hash, &sample, &loss)
		tr.Process(f.ackp, ts+1, f.hash, &sample, &loss)
	}
	b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "pps")
}

var (
	sinkFlowHash uint64
	sinkTouch    uint32
)

// tupleSummary is the parsed TCP packet of one generated tuple.
func tupleSummary(t *hashTuple) pkt.Summary {
	s := pkt.Summary{IPv6: t.src.Is6()}
	if s.IPv6 {
		s.IP6.Src, s.IP6.Dst = t.src, t.dst
		s.Decoded = pkt.LayerEthernet | pkt.LayerIPv6 | pkt.LayerTCP
	} else {
		s.IP4.Src, s.IP4.Dst = t.src, t.dst
		s.Decoded = pkt.LayerEthernet | pkt.LayerIPv4 | pkt.LayerTCP
	}
	s.TCP = pkt.TCP{SrcPort: t.sp, DstPort: t.dp, Flags: pkt.TCPAck}
	return s
}

// benchFlowHash: the seeded flow hash that indexes a queue's flow tables
// and sketch tier, once per TCP packet. It cycles over 64 summaries of
// generated tuples, which stay in L1 like the packet a worker has just
// parsed.
func benchFlowHash(b *testing.B, ipv6Fraction float64) {
	tuples := genTuples(b, 64, ipv6Fraction)
	sums := make([]pkt.Summary, len(tuples))
	for i := range tuples {
		sums[i] = tupleSummary(&tuples[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFlowHash = core.FlowHash(flowSeed, &sums[i%len(sums)])
	}
}

// benchTrackers22k: one packet per op through the handshake table, the
// timestamp tracker and the seq tracker, as a queue worker runs them on
// the trackers workload, at the 22 k live flows one of its four queues
// holds by the end of a 10 s run, in tables of the daemon's 1<<16 slots.
// The flows are those the symmetric Toeplitz hash sends to queue 0 of 4,
// each packet is hashed and the trackers' tables touched in the loop as
// the engine does it, and flows are visited in random order, so the row
// carries the index's probe chains and cache misses. An op alternates a
// flow's data segment and the ACK that echoes it: a seq and a timestamp
// sample per flow visit.
func benchTrackers22k(b *testing.B) {
	const (
		flows  = 22000
		queues = 4
	)
	// Each generated flow shows up as two tuples, one per direction.
	all := genTuples(b, 2*flows*queues*9/8, 0)
	toeplitz := rss.NewSymmetric()
	type flow struct{ data, ack pkt.Summary }
	fl := make([]flow, 0, flows)
	seen := make(map[hashTuple]bool, flows)
	payload := make([]byte, 100)
	for i := range all {
		t := &all[i]
		if seen[hashTuple{t.dst, t.src, t.dp, t.sp}] ||
			rss.Queue(toeplitz.HashTuple(t.src, t.dst, t.sp, t.dp), queues) != 0 {
			continue
		}
		seen[*t] = true
		f := flow{data: tupleSummary(t)}
		f.data.Payload = payload
		f.data.TCP.Options = make([]byte, pkt.TimestampOptionLen)
		f.ack = tupleSummary(&hashTuple{t.dst, t.src, t.dp, t.sp})
		f.ack.TCP.Options = make([]byte, pkt.TimestampOptionLen)
		if fl = append(fl, f); len(fl) == flows {
			break
		}
	}
	if len(fl) < flows {
		b.Fatalf("%d generated tuples gave %d flows on queue 0, want %d", len(all), len(fl), flows)
	}
	hs := core.NewHandshakeTable(core.TableConfig{Capacity: 1 << 16})
	tst := core.NewTSTracker(core.TSConfig{Capacity: 1 << 16})
	seq := core.NewSeqTracker(core.SeqConfig{Capacity: 1 << 16, DeferTS: true})
	var (
		m      core.Measurement
		smp    core.TSSample
		ss     core.SeqSample
		lev    core.LossEvent
		now    int64
		tsval  uint32
		cur    *flow
		rng    = uint32(1)
		packet = func(s *pkt.Summary) {
			now += 1000
			h := uint32(core.FlowHash(flowSeed, s))
			sinkTouch ^= tst.Touch(h) ^ seq.Touch(h)
			hs.Process(s, now, h, &m)
			tst.Process(s, now, h, &smp)
			seq.Process(s, now, h, &ss, &lev)
		}
		step = func(f *flow, data bool) {
			tsval++
			if data {
				f.data.TCP.Seq += 100
				pkt.PutTimestampOption(f.data.TCP.Options, tsval, tsval-1)
				packet(&f.data)
				return
			}
			f.ack.TCP.Ack = f.data.TCP.Seq + 100
			pkt.PutTimestampOption(f.ack.TCP.Options, tsval, tsval-1)
			packet(&f.ack)
		}
	)
	for i := range fl {
		step(&fl[i], true)
		step(&fl[i], false)
	}
	if n := tst.Len(); n != flows || seq.Len() != flows {
		b.Fatalf("%d ts and %d seq flows live after warm-up, want %d", n, seq.Len(), flows)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			rng ^= rng << 13
			rng ^= rng >> 17
			rng ^= rng << 5
			cur = &fl[rng%flows]
		}
		step(cur, i%2 == 0)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pps")
}

// benchSinkConsume: enriched topic → sharded sink workers → batched
// interned-ref TSDB writes, 4 workers, 8 DB stripes, batch 64. It publishes
// pre-marshalled measurements over 32 city pairs straight onto the enriched
// topic, so packet processing is out of the picture, and flow-controls the
// producer under the subscription HWM, so msg/s is the sink's drain rate,
// not the publisher's.
func benchSinkConsume(b *testing.B) {
	const pairs = 32
	b.ReportAllocs()
	msgs := max(b.N, 20000)
	payloads := make([][]byte, pairs)
	for i := range payloads {
		e := analytics.Enriched{
			Time: 1e9, InternalNs: 15e6, ExternalNs: 130e6, TotalNs: 145e6,
			Src: analytics.Endpoint{City: fmt.Sprintf("SrcCity%d", i), CountryCode: "NZ",
				Lat: -36.85, Lon: 174.76, ASN: uint32(64000 + i)},
			Dst: analytics.Endpoint{City: fmt.Sprintf("DstCity%d", i), CountryCode: "US",
				Lat: 34.05, Lon: -118.24, ASN: 64500},
		}
		payloads[i] = analytics.MarshalEnriched(nil, &e)
	}
	world, err := geo.NewWorld(geo.WorldOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	p, err := ruru.New(ruru.Config{
		GeoDB:       world.DB(),
		Queues:      1, // no packet traffic; keep idle pollers minimal
		SinkWorkers: 4,
		SinkBatch:   64,
		DBStripes:   8,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := p.Close(); err != nil {
			b.Error(err)
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(ctx)
	}()

	accounted := func() uint64 { return p.Stats().Accounted() }
	// Flow-control check only once per window: Stats() walks every stage,
	// and probing it per message would throttle the producer enough to
	// understate the drain rate being measured.
	const window = 1 << 12
	start := time.Now()
	published := 0
	for published < msgs {
		if published%window == 0 {
			for uint64(published)-accounted() > 1<<14 {
				time.Sleep(50 * time.Microsecond)
			}
		}
		p.Bus.Publish(mq.Message{Topic: ruru.TopicEnriched, Payload: payloads[published%len(payloads)]})
		published++
	}
	deadline := time.Now().Add(60 * time.Second)
	for accounted() < uint64(msgs) {
		if time.Now().After(deadline) {
			b.Fatalf("sink never drained (%+v)", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)
	cancel()
	<-done

	st := p.Stats()
	if st.SinkDrop != 0 {
		b.Fatalf("sink dropped %d measurements", st.SinkDrop)
	}
	b.ReportMetric(float64(st.DBPoints)/elapsed.Seconds(), "msg/s")
}

func dbBatchOpts(stripes int) tsdb.Options {
	return tsdb.Options{ShardDuration: 1e9, Retention: 2e9, Stripes: stripes}
}

// benchDBWriteBatch: the string-keyed batched entry point (WriteBatch
// resolves each point's shape under the stripe lock), 8 stripes. Each op
// writes one 64-point batch; every goroutine owns its own series so stripe
// contention is the only shared cost, and all goroutines share one clock:
// with per-goroutine clocks, a writer descheduled behind the leader would
// fall past the retention horizon and its batches would take the cheap drop
// path instead of the series append being measured.
func benchDBWriteBatch(b *testing.B) {
	const batchLen = 64
	db := tsdb.Open(dbBatchOpts(8))
	var worker, clock atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		city := "City" + fmt.Sprint(worker.Add(1))
		batch := make([]tsdb.Point, batchLen)
		for pb.Next() {
			t := clock.Add(batchLen*1e6) - batchLen*1e6
			for i := range batch {
				t += 1e6
				batch[i] = tsdb.Point{
					Name: "latency",
					Tags: []tsdb.Tag{
						{Key: "src_city", Value: city},
						{Key: "dst_city", Value: "Los Angeles"},
					},
					Fields: []tsdb.Field{
						{Key: "internal_ms", Value: 15},
						{Key: "external_ms", Value: 130},
						{Key: "total_ms", Value: 145},
					},
					Time: t,
				}
			}
			if _, err := db.WriteBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	reportPPS(b, batchLen)
}

// benchDBWriteBatchRef20k: the interned-handle entry point under the sink's
// load, so the row can be read against the benchmark's traced
// tsdb.write_ref_ns_per_pt — 20 k interned series, the default rollup
// ladder, default one-hour shards, one writer, and every 64-point batch
// spread over 64 distinct series on a clock advancing 20 µs a point (50 k
// measurements/s). Each series is therefore revisited every 0.4 s of data
// time: cold cache lines, and a new bucket in some tier on most points.
// (The 16-series version of this row read 50–80× below the trace.) heap_B/pt
// is what the store keeps per point written, raw columns and tiers: the
// live heap after a GC at the end, less the live heap before the warm-up,
// over every point written.
func benchDBWriteBatchRef20k(b *testing.B) {
	const batchLen, nSeries = 64, 20000
	db := tsdb.Open(tsdb.Options{Stripes: 8, Rollups: tsdb.DefaultRollups()})
	refs := make([]tsdb.SeriesRef, nSeries)
	for i := range refs {
		var err error
		refs[i], err = db.Ref("latency",
			[]tsdb.Tag{
				{Key: "src_city", Value: "City" + fmt.Sprint(i%200)},
				{Key: "dst_city", Value: "City" + fmt.Sprint(i/200)},
			},
			"internal_ms", "external_ms", "total_ms")
		if err != nil {
			b.Fatal(err)
		}
	}
	batch := make([]tsdb.RefPoint, batchLen)
	vals := make([]float64, 3*batchLen)
	for i := range batch {
		batch[i].Vals = vals[3*i : 3*i+3 : 3*i+3]
	}
	var t int64
	next := 0
	write := func() {
		for j := range batch {
			t += 20e3
			next = (next + 7919) % nSeries // a prime stride: every series, none twice in a batch
			in := 15 + float64(next%97)
			v := batch[j].Vals
			v[0], v[1], v[2] = in, 130, in+130
			batch[j].Ref, batch[j].Time = refs[next], t
		}
		if _, err := db.WriteBatchRef(batch); err != nil {
			b.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	// One pass over every series first: a series' first point builds its
	// chunk, columns and tier chunks, which a deployment pays once per series
	// per hour and a short run would pay on a tenth of its points.
	const warm = nSeries/batchLen + 1
	for i := 0; i < warm; i++ {
		write()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write()
	}
	b.StopTimer()
	reportPPS(b, batchLen)
	runtime.GC()
	runtime.ReadMemStats(&after)
	grown := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	b.ReportMetric(grown/float64((warm+b.N)*batchLen), "heap_B/pt")
	runtime.KeepAlive(db)
}

// benchDBWriteBatchRefSteady pins the zero-alloc claim in the suite: a
// single writer on the interned-ref path with long shards, so shard churn
// amortizes away and allocs/op records the steady state — 0
// allocation events per 64-point batch. B/op stays nonzero: it is the
// amortized cost of column storage growth (rare doubling reallocations),
// bytes without per-op allocation events. The AllocsPerRun unit test pins
// the same property exactly (pre-grown storage); this row gates it
// against the parent commit.
func benchDBWriteBatchRefSteady(b *testing.B) {
	const batchLen = 64
	db := tsdb.Open(tsdb.Options{ShardDuration: 60e9, Retention: 120e9})
	ref, err := db.Ref("latency",
		[]tsdb.Tag{
			{Key: "src_city", Value: "Auckland"},
			{Key: "dst_city", Value: "Los Angeles"},
		},
		"internal_ms", "external_ms", "total_ms")
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]tsdb.RefPoint, batchLen)
	vals := make([]float64, 3*batchLen)
	for i := range batch {
		v := vals[3*i : 3*i+3 : 3*i+3]
		v[0], v[1], v[2] = 15, 130, 145
		batch[i] = tsdb.RefPoint{Ref: ref, Vals: v}
	}
	var t int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			t += 1e6
			batch[j].Time = t
		}
		if _, err := db.WriteBatchRef(batch); err != nil {
			b.Fatal(err)
		}
	}
	reportPPS(b, batchLen)
}

// benchWALWrite: one 64-point batch per op, WAL-logged at the production
// default fsync policy.
func benchWALWrite(b *testing.B) {
	const batchLen = 64
	db, err := tsdb.OpenDB(tsdb.Options{
		Persist: &tsdb.PersistOptions{
			Dir: b.TempDir(), Fsync: tsdb.FsyncInterval, CheckpointEvery: -1,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := db.Close(); err != nil {
			b.Error(err)
		}
	}()
	batch := make([]tsdb.Point, batchLen)
	var t int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			t += 1e6
			batch[j] = tsdb.Point{
				Name: "latency",
				Tags: []tsdb.Tag{
					{Key: "src_city", Value: "Auckland"},
					{Key: "dst_city", Value: "Los Angeles"},
				},
				Fields: []tsdb.Field{
					{Key: "internal_ms", Value: 15},
					{Key: "external_ms", Value: 130},
					{Key: "total_ms", Value: 145},
				},
				Time: t,
			}
		}
		if _, err := db.WriteBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	reportPPS(b, batchLen)
}

// benchRollupQuery: a grouped, windowed query served from a rollup tier
// over a pre-populated DB — the dashboard read path.
func benchRollupQuery(b *testing.B) {
	db := tsdb.Open(tsdb.Options{
		ShardDuration: 10e9,
		Rollups:       []tsdb.RollupTier{{Width: 1e9}, {Width: 10e9}},
	})
	cities := []string{"Auckland", "Wellington", "Sydney", "Tokyo"}
	const nPoints = 100000
	batch := make([]tsdb.RefPoint, 0, 256)
	vals := make([]float64, 0, 256)
	refs := make([]tsdb.SeriesRef, len(cities))
	for i, c := range cities {
		ref, err := db.Ref("latency",
			[]tsdb.Tag{{Key: "src_city", Value: c}, {Key: "dst_city", Value: "Los Angeles"}},
			"total_ms")
		if err != nil {
			b.Fatal(err)
		}
		refs[i] = ref
	}
	for i := 0; i < nPoints; i++ {
		vals = append(vals, float64(1+i%997))
		batch = append(batch, tsdb.RefPoint{
			Ref: refs[i%len(refs)], Time: int64(i) * 1e6,
			Vals: vals[len(vals)-1 : len(vals) : len(vals)],
		})
		if len(batch) == cap(batch) {
			if _, err := db.WriteBatchRef(batch); err != nil {
				b.Fatal(err)
			}
			batch, vals = batch[:0], vals[:0]
		}
	}
	q := tsdb.Query{
		Measurement: "latency", Field: "total_ms",
		Start: 0, End: 100e9, Window: 10e9, GroupBy: "src_city",
		Aggs: []tsdb.AggKind{tsdb.AggCount, tsdb.AggMin, tsdb.AggMax, tsdb.AggSum, tsdb.AggMean},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Execute(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != len(cities) {
			b.Fatalf("got %d groups", len(res))
		}
	}
}

// benchCachedQuery: the live-dashboard read path through the query result
// cache — the same advancing-window shape BenchmarkQueryCached pins at
// ≥10× over uncached tier execution, gated here against the parent commit.
// Each op re-issues a 10-minute window advanced by one 10s bucket, so
// steady state is one cache hit plus an incremental tail refresh.
func benchCachedQuery(b *testing.B) {
	db := tsdb.Open(tsdb.Options{
		ShardDuration: 60e9,
		Rollups:       []tsdb.RollupTier{{Width: 1e9}},
		QueryCache:    16 << 20,
	})
	cities := []string{"Auckland", "Wellington", "Sydney", "Tokyo"}
	refs := make([]tsdb.SeriesRef, len(cities))
	for i, c := range cities {
		ref, err := db.Ref("latency",
			[]tsdb.Tag{{Key: "src_city", Value: c}, {Key: "dst_city", Value: "Los Angeles"}},
			"total_ms")
		if err != nil {
			b.Fatal(err)
		}
		refs[i] = ref
	}
	// 1200s of data at 4 series × 10 points/s.
	const span = int64(1200e9)
	batch := make([]tsdb.RefPoint, 0, 256)
	vals := make([]float64, 0, 256)
	for i := int64(0); i < span/1e8; i++ {
		vals = append(vals, float64(1+i%997))
		batch = append(batch, tsdb.RefPoint{
			Ref: refs[i%int64(len(refs))], Time: i * 1e8,
			Vals: vals[len(vals)-1 : len(vals) : len(vals)],
		})
		if len(batch) == cap(batch) {
			if _, err := db.WriteBatchRef(batch); err != nil {
				b.Fatal(err)
			}
			batch, vals = batch[:0], vals[:0]
		}
	}
	const (
		window   = int64(10e9)
		lookback = int64(600e9)
	)
	q := tsdb.Query{
		Measurement: "latency", Field: "total_ms",
		Window: window, GroupBy: "src_city",
		Aggs: []tsdb.AggKind{tsdb.AggCount, tsdb.AggMean, tsdb.AggP95},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (int64(i) * window) % (span - lookback)
		q.Start, q.End = off, off+lookback
		res, err := db.Execute(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != len(cities) {
			b.Fatalf("got %d groups", len(res))
		}
	}
}

// benchCachedQuery40k: one dashboard refresh on a store shaped like the
// dashboard workload's after its run — 48 history series over the last hour
// plus 39 364 live-born ones drawn from 64 cities × 4 ASNs on each side, in
// the pipeline's configuration (8 stripes, default rollups, 1 h shards, a
// 16 MiB cache) — with the dashboard query (1 h in 10 s windows by
// src_city: mean, p95, count). Between refreshes, with the timer stopped,
// 1 200 fresh points land 0.2 s of data time later: 6 000 points/s at the
// dashboard's 5 Hz. A refresh is thus a cache hit and a short tail merge
// over every live series.
func benchCachedQuery40k(b *testing.B) {
	const (
		hour     = int64(3600e9)
		window   = int64(10e9)
		cities   = 64
		asns     = 4
		history  = 48
		live     = 39364
		fresh    = 1200
		interval = int64(200e6)
	)
	db := tsdb.Open(tsdb.Options{Stripes: 8, Rollups: tsdb.DefaultRollups(), QueryCache: 16 << 20})
	ref := func(src, dst int) tsdb.SeriesRef {
		city := func(i int) string { return fmt.Sprintf("City%02d", i/asns) }
		r, err := db.Ref("latency", []tsdb.Tag{
			{Key: "src_city", Value: city(src)}, {Key: "src_cc", Value: "NZ"}, {Key: "src_asn", Value: fmt.Sprint(src % asns)},
			{Key: "dst_city", Value: city(dst)}, {Key: "dst_cc", Value: "US"}, {Key: "dst_asn", Value: fmt.Sprint(dst % asns)},
		}, "internal_ms", "external_ms", "total_ms")
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	// Ten minutes into a shard slot, so the hour spans two slots and the
	// data clock stays inside the second for hours of refreshes.
	now := 10*hour + 600e9
	batch := make([]tsdb.RefPoint, 0, 256)
	vals := make([]float64, 0, 3*256)
	x := uint64(1)
	add := func(r tsdb.SeriesRef, t int64) {
		x = x*6364136223846793005 + 1442695040888963407
		v := 1 + float64(x>>44)/64
		vals = append(vals, v/3, v-v/3, v)
		batch = append(batch, tsdb.RefPoint{Ref: r, Time: t, Vals: vals[len(vals)-3 : len(vals) : len(vals)]})
		if len(batch) == cap(batch) {
			if _, err := db.WriteBatchRef(batch); err != nil {
				b.Fatal(err)
			}
			batch, vals = batch[:0], vals[:0]
		}
	}
	flush := func() {
		if _, err := db.WriteBatchRef(batch); err != nil {
			b.Fatal(err)
		}
		batch, vals = batch[:0], vals[:0]
	}
	hist := make([]tsdb.SeriesRef, history)
	for i := range hist {
		hist[i] = ref(asns*i, asns*(history-1-i))
	}
	for t := now - hour; t < now-12e9; t += 1e9 {
		for _, r := range hist {
			add(r, t)
		}
	}
	// The live series are born over the last 12 s at 6 000 points/s.
	rng := rand.New(rand.NewSource(1))
	refs := make([]tsdb.SeriesRef, live)
	for i, k := range rng.Perm(cities * asns * cities * asns)[:live] {
		refs[i] = ref(k/(cities*asns), k%(cities*asns))
	}
	for i := 0; i < 72000; i++ {
		r := refs[rng.Intn(live)]
		if i < live {
			r = refs[i]
		}
		add(r, now-12e9+int64(i)*12e9/72000)
	}
	flush()
	q := tsdb.Query{Measurement: "latency", Field: "total_ms", Window: window, GroupBy: "src_city",
		Aggs: []tsdb.AggKind{tsdb.AggMean, tsdb.AggP95, tsdb.AggCount}}
	refresh := func() {
		q.End = (now + window - 1) / window * window
		q.Start = q.End - hour
		res, err := db.Execute(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != cities {
			b.Fatalf("got %d groups", len(res))
		}
	}
	refresh() // the first miss resolves the walk the refreshes keep
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < fresh; j++ {
			add(refs[rng.Intn(live)], now+int64(j)*interval/fresh)
		}
		flush()
		now += interval
		b.StartTimer()
		refresh()
	}
}

// benchQueryEncode: the /api/query response body for the dashboard's answer
// — 48 groups × 360 buckets of mean, p95 and count, one bucket in ten empty
// (null mean and p95) — streamed in the handler's 64 KiB chunks into a
// reused buffer. B/op and allocs/op are the encoder's own.
func benchQueryEncode(b *testing.B) {
	res := make([]tsdb.SeriesResult, 48)
	x := uint64(1)
	for g := range res {
		buckets := make([]tsdb.Bucket, 360)
		for i := range buckets {
			x = x*6364136223846793005 + 1442695040888963407
			n := int(x>>58) + 1
			mean := 100 + float64(x>>40&0xffff)/437
			aggs := map[tsdb.AggKind]float64{
				tsdb.AggCount: float64(n), tsdb.AggMean: mean, tsdb.AggP95: mean * 1.37,
			}
			if i%10 == 9 {
				n = 0
				aggs = map[tsdb.AggKind]float64{
					tsdb.AggCount: 0, tsdb.AggMean: math.NaN(), tsdb.AggP95: math.NaN(),
				}
			}
			buckets[i] = tsdb.Bucket{Start: 1.7e18 + int64(i)*10e9, Count: n, Aggs: aggs}
		}
		res[g] = tsdb.SeriesResult{Group: fmt.Sprintf("City%d", g), Tier: 10e9, Buckets: buckets}
	}
	var buf []byte
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = tsdb.WriteResultsJSON(io.Discard, buf, 64<<10, res); err != nil {
			b.Fatal(err)
		}
	}
}

func reportPPS(b *testing.B, pointsPerOp int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)*float64(pointsPerOp)/s, "pps")
	}
}

// benchSketchObserveChurn: the bounded-memory tier's per-packet cost under
// flow churn — 16384 recurring flows, four times what the flow summary
// holds, so most observations evict its minimum; every eighth packet a
// flow never seen before; Publish(false) once per 64-packet burst, as the
// queue worker calls it, so the throttled snapshot copy is inside the
// timed loop. The observe path is //ruru:noalloc: allocs/op reads 0,
// the only allocations being the snapshot copies every PublishEvery
// observations.
func benchSketchObserveChurn(b *testing.B) {
	tier, err := sketch.NewFlowTier(sketch.TierConfig{BudgetBytes: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	const (
		recurring = 1 << 14
		burst     = 64
	)
	s, _ := benchSummary(0, 1, 0, 443, 1000, 1, nil)
	s.IP4.TotalLen = 1500
	observe := func(f uint32) {
		s.IP4.Src = netip.AddrFrom4([4]byte{10, byte(f >> 16), byte(f >> 8), byte(f)})
		s.TCP.SrcPort = uint16(1024 + f%50000)
		tier.Observe(s)
	}
	for f := uint32(0); f < recurring; f++ {
		observe(f)
	}
	tier.Publish(true)
	rng, fresh := uint32(1), uint32(recurring)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%8 == 0 {
			observe(fresh)
			fresh++
		} else {
			rng ^= rng << 13
			rng ^= rng >> 17
			rng ^= rng << 5
			observe(rng % recurring)
		}
		if i%burst == burst-1 {
			tier.Publish(false)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pps")
}

// benchSketchTopK: the /api/topk serving cost — rank the 10 largest of a
// full 1024-entry heavy-hitter summary into a reused buffer per op
// (sketch.TopK.Top; 0 allocs/op once the buffer is warm). Sized to stay
// cache-resident so the row tracks the ranking code, not memory
// pressure from the rest of the suite.
func benchSketchTopK(b *testing.B) {
	const keys = 1024
	seed := maphash.MakeSeed()
	tk := sketch.NewTopK(keys, func(id sketch.FlowID) uint64 { return maphash.Comparable(seed, id) })
	for i := 0; i < keys; i++ {
		id := sketch.FlowID{
			A:     netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
			B:     netip.AddrFrom4([4]byte{192, 0, 2, 1}),
			APort: uint16(i), BPort: 443,
		}
		tk.Update(id, uint64(i+1)*7919)
	}
	dst := make([]sketch.Item[sketch.FlowID], 0, keys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = tk.Top(dst[:0], 10)
	}
}
