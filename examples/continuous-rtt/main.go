// continuous-rtt demonstrates the extension beyond the paper: RTT
// measurement that keeps working after connection setup. Two trackers
// cooperate: TCP timestamp echoes (the pping technique) cover flows that
// carry the RFC 7323 option, and data→ACK sequence matching covers flows
// that do NOT — real captures contain both. The scenario includes flows
// established before the capture started: the handshake engine
// structurally cannot measure those, but both trackers can.
//
// Run with: go run ./examples/continuous-rtt
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ruru/internal/gen"
	"ruru/internal/geo"
	"ruru/internal/nic"
	"ruru/internal/ruru"
	"ruru/internal/tsdb"
)

func main() {
	world, err := geo.NewWorld(geo.WorldOptions{})
	if err != nil {
		log.Fatal(err)
	}
	p, err := ruru.New(ruru.Config{
		GeoDB: world.DB(), Queues: 4,
		Overflow:        nic.Block, // the generator is a lossless source
		TrackTimestamps: true,      // pping tracker: flows WITH the TS option
		TrackSeq:        true,      // seq tracker: flows WITHOUT it
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := p.Close(); err != nil {
			log.Printf("pipeline close: %v", err)
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go p.Run(ctx)

	// Two 60-virtual-second workloads into the same tap: one whose stacks
	// negotiate RFC 7323 timestamps, one whose stacks do not (its server
	// ACKs still pair with client data ranges — the seq tracker's input).
	// Both include pre-established (midstream) flows with no handshake.
	run := func(seed int64, emitTS bool) {
		g, err := gen.New(gen.Config{
			Seed: seed, World: world,
			FlowRate: 100, Duration: 60e9,
			ClientCities: []int{0}, ServerCities: []int{1, 12, 20},
			DataSegments: 4, DataSpacing: 400e6,
			MidstreamRate:     25,
			EmitTCPTimestamps: emitTS,
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := nic.Drive(ctx, p.Port, 0, false, g.Source()); err != nil {
			log.Fatal(err)
		}
	}
	run(5, true)
	run(6, false)

	// Let the pipeline drain: both trackers' stored-sample counters stable.
	for prevTS, prevSeq := uint64(0), uint64(0); ; {
		time.Sleep(200 * time.Millisecond)
		st := p.Stats()
		if st.TSSamples == prevTS && st.SeqSamples == prevSeq && st.Engine.Completed > 0 {
			break
		}
		prevTS, prevSeq = st.TSSamples, st.SeqSamples
	}

	st := p.Stats()
	fmt.Printf("handshake measurements:     %6d  (one per NEW connection)\n", st.Engine.Completed)
	fmt.Printf("continuous RTT samples:     %6d  via timestamp echoes (mode=ts)\n", st.TSSamples)
	fmt.Printf("                            %6d  via sequence matching (mode=seq — no TS option on the wire)\n", st.SeqSamples)
	fmt.Printf("loss events classified:     %6d  (retrans %d / rto %d / dupack %d)\n\n",
		st.Seq.Retrans+st.Seq.RTO+st.Seq.DupACK, st.Seq.Retrans, st.Seq.RTO, st.Seq.DupACK)

	// The Grafana-style view: one rtt_stream measurement, the mode tag
	// says which technique produced each sample.
	res, err := p.DB.Execute(tsdb.Query{
		Measurement: "rtt_stream", Field: "rtt_ms",
		Start: 0, End: 120e9,
		GroupBy: "mode",
		Aggs:    []tsdb.AggKind{tsdb.AggCount, tsdb.AggMedian, tsdb.AggP99},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("in-stream RTT by measurement mode (tap in Auckland):")
	fmt.Printf("  %-8s %8s %12s %12s\n", "mode", "samples", "median", "p99")
	for _, r := range res {
		b := r.Buckets[0]
		fmt.Printf("  %-8s %8d %10.1fms %10.1fms\n",
			r.Group, b.Count, b.Aggs[tsdb.AggMedian], b.Aggs[tsdb.AggP99])
	}

	res, err = p.DB.Execute(tsdb.Query{
		Measurement: "rtt_stream", Field: "rtt_ms",
		Start: 0, End: 120e9,
		GroupBy: "echoer_city",
		Aggs:    []tsdb.AggKind{tsdb.AggCount, tsdb.AggMedian, tsdb.AggP99},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nin-stream RTT by echoing city, both modes merged:")
	fmt.Printf("  %-16s %8s %12s %12s\n", "echoer", "samples", "median", "p99")
	for _, r := range res {
		b := r.Buckets[0]
		fmt.Printf("  %-16s %8d %10.1fms %10.1fms\n",
			r.Group, b.Count, b.Aggs[tsdb.AggMedian], b.Aggs[tsdb.AggP99])
	}
	fmt.Println("\nEvery row includes flows whose handshake was never observed, and the")
	fmt.Println("seq-matched share needs no cooperation from the endpoints' TCP stacks.")
}
