package core_test

import (
	"slices"
	"testing"

	"ruru/internal/core"
	"ruru/internal/gen"
	"ruru/internal/geo"
	"ruru/internal/pkt"
	"ruru/internal/rss"
)

// TestContinuousRTTMatchesOracle checks timestamp-echo RTT, the extension
// past the paper's one handshake sample per flow ("latency for all
// individual TCP flows"), against the generator's oracle. A seeded trace
// runs through a HandshakeTable and a TSTracker per queue, side by side as
// a queue worker runs them. Every expected data echo of a TS-clean flow must
// come back with its exact RTT and no sample may be off the oracle,
// in-stream external latency must sit below the handshake's (it excludes
// server think time), and every midstream flow — invisible to the
// handshake engine — must be measured exactly.
func TestContinuousRTTMatchesOracle(t *testing.T) {
	world, err := geo.NewWorld(geo.WorldOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const rate = 2000.0
	g, err := gen.New(gen.Config{
		Seed: 1, World: world,
		FlowRate: rate, Duration: 2.5e9,
		// Request/response pacing: data segments spaced beyond the path
		// RTT so echoes return before the pending window rolls over.
		DataSegments: 3, DataSpacing: 400e6,
		// Server think time makes the handshake's external latency
		// (2·dTS + think) distinct from the data-echo RTT (2·dTS), so the
		// oracle can tell the two sample kinds apart by value.
		ServerDelay:       5e6,
		MidstreamRate:     rate / 10,
		EmitTCPTimestamps: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Nothing expires inside the trace, so each queue holds every flow it
	// sees: about 1.4 k, well inside the capacity.
	const queues, capacity = 4, 1 << 13
	hasher := rss.NewSymmetric()
	tables := make([]*core.HandshakeTable, queues)
	trackers := make([]*core.TSTracker, queues)
	for q := range tables {
		tables[q] = core.NewHandshakeTable(core.TableConfig{Capacity: capacity, Timeout: 60e9, Queue: q})
		trackers[q] = core.NewTSTracker(core.TSConfig{Capacity: capacity, Timeout: 60e9, Queue: q})
	}
	// Samples keyed by the data direction's tuple (client→server), i.e.
	// the ones where the server echoed.
	samples := map[core.FlowKey][]int64{}
	var handshakeExt []int64
	var (
		parser pkt.Parser
		p      gen.Packet
		sum    pkt.Summary
		m      core.Measurement
		ts     core.TSSample
	)
	for g.Next(&p) {
		if err := parser.Parse(p.Frame, &sum); err != nil || !sum.IsTCP() {
			continue
		}
		hash := hasher.HashTuple(sum.Src(), sum.Dst(), sum.TCP.SrcPort, sum.TCP.DstPort)
		q := rss.Queue(hash, queues)
		if tables[q].Process(&sum, p.TS, hash, &m) {
			handshakeExt = append(handshakeExt, m.External)
		}
		if trackers[q].Process(&sum, p.TS, hash, &ts) {
			key := core.FlowKey{Client: ts.Peer, Server: ts.Echoer,
				ClientPort: ts.PeerPort, ServerPort: ts.EchoerPort}
			samples[key] = append(samples[key], ts.RTT)
		}
	}

	var (
		flows, expected, matched, wrong                int
		midFlows, midMeasured, midExpected, midMatched int
		dataRTT                                        []int64
	)
	for _, tr := range g.Truths() {
		if !tr.TSClean || tr.TSDataEchoes == 0 {
			continue
		}
		if tr.Midstream {
			midFlows++
			midExpected += tr.TSDataEchoes
			measured := false
			for _, rtt := range samples[tr.Key] {
				if rtt == tr.TSDataRTT {
					midMatched++
					measured = true
				} else {
					wrong++
				}
			}
			if measured {
				midMeasured++
			}
			continue
		}
		if !tr.Completes {
			continue
		}
		flows++
		expected += tr.TSDataEchoes
		// A completing flow's server-side samples are its data echoes plus
		// the SYN→SYN-ACK echo, whose value is ExpectedExternal.
		for _, rtt := range samples[tr.Key] {
			switch rtt {
			case tr.TSDataRTT:
				matched++
				dataRTT = append(dataRTT, rtt)
			case tr.ExpectedExternal:
			default:
				wrong++
			}
		}
	}
	t.Logf("%d TS-clean flows: %d/%d data echoes exact; %d/%d midstream flows measured",
		flows, matched, expected, midMeasured, midFlows)
	if flows < 1000 {
		t.Fatalf("only %d TS-clean flows", flows)
	}
	for q := range tables {
		if full := tables[q].Stats().TableFull + trackers[q].Stats().TableFull; full != 0 {
			t.Fatalf("queue %d: %d flows refused by a full table", q, full)
		}
	}
	if matched != expected {
		t.Errorf("matched %d/%d data echoes", matched, expected)
	}
	if wrong != 0 {
		t.Errorf("%d off-oracle samples", wrong)
	}
	if len(dataRTT) > 0 && median(dataRTT) >= median(handshakeExt) {
		t.Errorf("in-stream median %d ns >= handshake median %d ns", median(dataRTT), median(handshakeExt))
	}
	if midFlows == 0 {
		t.Fatal("no midstream flows generated")
	}
	if midMeasured != midFlows {
		t.Errorf("midstream: measured %d/%d flows", midMeasured, midFlows)
	}
	if midMatched != midExpected {
		t.Errorf("midstream: %d/%d samples exact", midMatched, midExpected)
	}
}

func median(v []int64) int64 {
	slices.Sort(v)
	return v[len(v)/2]
}
