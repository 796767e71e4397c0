// Package ruru_bench holds the top-level benchmark targets, one per
// experiment in DESIGN.md §4 / EXPERIMENTS.md. Each wraps the corresponding
// experiments.E* harness (or the hot kernel it measures) in a testing.B so
// `go test -bench=.` regenerates the performance side of the evaluation;
// `cmd/ruru-bench` prints the full human-readable tables. BenchmarkSpecs
// runs the persisted trajectory suite (internal/bench, the BENCH_*.json
// entries) under `go test -bench`, for -cpuprofile and -benchmem.
package ruru_bench

import (
	"io"
	"strings"
	"testing"

	"ruru/internal/bench"
	"ruru/internal/core"
	"ruru/internal/experiments"
	"ruru/internal/gen"
	"ruru/internal/geo"
	"ruru/internal/pkt"
	"ruru/internal/rss"
	"ruru/internal/tsdb"
)

func world(b *testing.B) *geo.World {
	b.Helper()
	w, err := geo.NewWorld(geo.WorldOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkE1HandshakeEngine measures the measurement fast path: parse +
// RSS hash + handshake-table processing per packet, on a realistic mix.
func BenchmarkE1HandshakeEngine(b *testing.B) {
	g, err := gen.New(gen.Config{
		Seed: 1, World: world(b),
		FlowRate: 10000, Duration: 1e15,
		DataSegments: 2, UDPRate: 2000, MidstreamRate: 200,
	})
	if err != nil {
		b.Fatal(err)
	}
	trace := make([]gen.TracePacket, 0, 100000)
	var p gen.Packet
	var bytes int64
	for len(trace) < 100000 && g.Next(&p) {
		frame := make([]byte, len(p.Frame))
		copy(frame, p.Frame)
		trace = append(trace, gen.TracePacket{TS: p.TS, Frame: frame})
		bytes += int64(len(frame))
	}
	table := core.NewHandshakeTable(core.TableConfig{Capacity: 1 << 17, Timeout: 1 << 62})
	h := rss.NewSymmetric()
	var parser pkt.Parser
	var sum pkt.Summary
	var m core.Measurement
	b.SetBytes(bytes / int64(len(trace)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := &trace[i%len(trace)]
		if err := parser.Parse(tp.Frame, &sum); err != nil || !sum.IsTCP() {
			continue
		}
		hash := h.HashTuple(sum.Src(), sum.Dst(), sum.TCP.SrcPort, sum.TCP.DstPort)
		table.Process(&sum, tp.TS, hash, &m)
	}
}

// BenchmarkSpecs runs every internal/bench suite entry as a sub-benchmark
// named like its BENCH_*.json key (e.g. BenchmarkSpecs/db/write-batch-ref),
// so the trajectory and `go test -bench` measure the same bodies.
func BenchmarkSpecs(b *testing.B) {
	for _, s := range bench.Specs() {
		b.Run(s.Name, s.F)
	}
}

// BenchmarkE2PipelineScaling runs the multi-queue engine at each queue
// count (the Fig. 2 scaling claim) inside one bench iteration.
func BenchmarkE2PipelineScaling(b *testing.B) {
	for _, q := range []int{1, 2, 4, 8} {
		b.Run(benchName("queues", q), func(b *testing.B) {
			b.ReportAllocs()
			rows, err := experiments.E2(experiments.E2Config{
				Seed: 1, QueueList: []int{q},
				TracePkts: 100000, RunPackets: int64(b.N) + 200000,
			}, io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(rows[0].Mpps, "Mpps")
			b.ReportMetric(rows[0].Gbps, "Gbps")
		})
	}
}

// BenchmarkE3Fanout measures WebSocket broadcast with 8 live clients.
func BenchmarkE3Fanout(b *testing.B) {
	b.ReportAllocs()
	rows, err := experiments.E3(experiments.E3Config{
		ClientList: []int{8}, Messages: max(b.N, 5000),
	}, io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rows[0].MaxAggregateRate, "msg/s-aggregate")
	b.ReportMetric(rows[0].MaxPerClientRate, "msg/s-per-client")
}

// BenchmarkE6GeoLookup measures enrichment database lookups.
func BenchmarkE6GeoLookup(b *testing.B) {
	w := world(b)
	db := w.DB()
	probe := w.Addr(3, 2, 12345)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Lookup(probe)
	}
}

// BenchmarkE7Toeplitz measures the software RSS hash for v4 and v6 tuples:
// the suite's rss/hash-* bodies (4096 distinct generated tuples each).
func BenchmarkE7Toeplitz(b *testing.B) {
	for _, s := range bench.Specs() {
		if family, ok := strings.CutPrefix(s.Name, "rss/hash-"); ok {
			b.Run(family, s.F)
		}
	}
}

// BenchmarkE8TSDB measures point ingest (write path of every measurement).
func BenchmarkE8TSDB(b *testing.B) {
	db := tsdb.Open(tsdb.Options{ShardDuration: 600e9})
	p := tsdb.Point{
		Name: "latency",
		Tags: []tsdb.Tag{
			{Key: "src_city", Value: "Auckland"},
			{Key: "dst_city", Value: "Los Angeles"},
			{Key: "dst_asn", Value: "64004"},
		},
		Fields: []tsdb.Field{
			{Key: "internal_ms", Value: 15},
			{Key: "external_ms", Value: 130},
			{Key: "total_ms", Value: 145},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Time = int64(i) * 2e6
		if err := db.Write(&p); err != nil {
			b.Fatal(err)
		}
	}
	reportPPS(b, 1)
}

// BenchmarkE9MQ measures one bus publish with a draining subscriber — the
// per-measurement cost of the modular ("ZeroMQ") interconnect.
func BenchmarkE9MQ(b *testing.B) {
	b.ReportAllocs()
	rows, err := experiments.E9(experiments.E9Config{
		Seed: 1, Messages: max(b.N, 10000),
	}, io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rows[1].NsPerMsg, "ns/msg-1hop")
	b.ReportMetric(rows[2].NsPerMsg, "ns/msg-2hop")
}

// reportPPS records sustained points/second for a benchmark whose every op
// writes pointsPerOp TSDB points — the throughput axis of the BENCH_*.json
// trajectory.
func reportPPS(b *testing.B, pointsPerOp int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)*float64(pointsPerOp)/s, "pps")
	}
}

func benchName(k string, v int) string {
	return k + "-" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
