package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"ruru/internal/pkt"
)

// mkTSSummary builds a parsed TCP packet carrying a timestamp option.
func mkTSSummary(src, dst string, sp, dp uint16, flags uint8, tsval, tsecr uint32) (*pkt.Summary, uint32) {
	s, h := mkSummary(src, dst, sp, dp, flags, 1, 1)
	var opt [pkt.TimestampOptionLen]byte
	s.TCP.Options = append([]byte(nil), pkt.PutTimestampOption(opt[:], tsval, tsecr)...)
	return s, h
}

func TestTSTrackerBasicEcho(t *testing.T) {
	tr := NewTSTracker(TSConfig{Capacity: 64, Queue: 2})
	var sample TSSample

	// A (10.0.0.1) sends TSval 100 at t=1000.
	a, h := mkTSSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, 100, 50)
	if tr.Process(a, 1000, h, &sample) {
		t.Fatal("first packet produced a sample")
	}
	// B echoes TSecr=100 at t=31000 → RTT 30000 for B's side.
	b, h2 := mkTSSummary("192.0.2.1", "10.0.0.1", 443, 5000, pkt.TCPAck, 900, 100)
	if h2 != h {
		t.Fatal("hash asymmetry")
	}
	if !tr.Process(b, 31000, h, &sample) {
		t.Fatal("echo not matched")
	}
	if sample.RTT != 30000 {
		t.Fatalf("RTT = %d", sample.RTT)
	}
	if sample.Echoer != netip.MustParseAddr("192.0.2.1") || sample.EchoerPort != 443 {
		t.Fatalf("echoer = %v:%d", sample.Echoer, sample.EchoerPort)
	}
	if sample.Queue != 2 || sample.At != 31000 {
		t.Fatalf("sample = %+v", sample)
	}
	// A echoes B's TSval 900 at t=40000 → RTT for A's side = 9000.
	a2, _ := mkTSSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, 101, 900)
	if !tr.Process(a2, 40000, h, &sample) {
		t.Fatal("reverse echo not matched")
	}
	if sample.RTT != 9000 || sample.Echoer != netip.MustParseAddr("10.0.0.1") {
		t.Fatalf("reverse sample = %+v", sample)
	}
}

func TestTSTrackerFirstEchoOnly(t *testing.T) {
	tr := NewTSTracker(TSConfig{Capacity: 64})
	var sample TSSample
	a, h := mkTSSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, 100, 1)
	tr.Process(a, 1000, h, &sample)
	b1, _ := mkTSSummary("192.0.2.1", "10.0.0.1", 443, 5000, pkt.TCPAck, 900, 100)
	if !tr.Process(b1, 2000, h, &sample) {
		t.Fatal("first echo missed")
	}
	// A duplicate/delayed echo of the same TSval must NOT re-sample.
	b2, _ := mkTSSummary("192.0.2.1", "10.0.0.1", 443, 5000, pkt.TCPAck, 901, 100)
	if tr.Process(b2, 9000, h, &sample) {
		t.Fatal("second echo of same TSval sampled")
	}
	if tr.Stats().Unmatched == 0 {
		t.Fatal("duplicate echo not counted unmatched")
	}
}

func TestTSTrackerDuplicateTSvalKeepsFirst(t *testing.T) {
	// Retransmission carries the same TSval; RTT must measure from the
	// FIRST transmission.
	tr := NewTSTracker(TSConfig{Capacity: 64})
	var sample TSSample
	a1, h := mkTSSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, 100, 1)
	tr.Process(a1, 1000, h, &sample)
	tr.Process(a1, 5000, h, &sample) // retransmission, same tsval
	b, _ := mkTSSummary("192.0.2.1", "10.0.0.1", 443, 5000, pkt.TCPAck, 900, 100)
	if !tr.Process(b, 8000, h, &sample) {
		t.Fatal("echo missed")
	}
	if sample.RTT != 7000 {
		t.Fatalf("RTT = %d, want 7000 (from first transmission)", sample.RTT)
	}
}

func TestTSTrackerPendingWindowEviction(t *testing.T) {
	// Only the last tsPendingSlots values per direction stay pending.
	tr := NewTSTracker(TSConfig{Capacity: 64})
	var sample TSSample
	const n = tsPendingSlots + 2
	var h uint32
	for i := uint32(0); i < n; i++ {
		a, hh := mkTSSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, 100+i, 1)
		h = hh
		tr.Process(a, int64(1000+i), h, &sample)
	}
	// The oldest two values rolled out of the window.
	old, _ := mkTSSummary("192.0.2.1", "10.0.0.1", 443, 5000, pkt.TCPAck, 900, 100)
	if tr.Process(old, 2000, h, &sample) {
		t.Fatal("evicted TSval matched")
	}
	old2, _ := mkTSSummary("192.0.2.1", "10.0.0.1", 443, 5000, pkt.TCPAck, 901, 101)
	if tr.Process(old2, 2000, h, &sample) {
		t.Fatal("second evicted TSval matched")
	}
	newer, _ := mkTSSummary("192.0.2.1", "10.0.0.1", 443, 5000, pkt.TCPAck, 902, 100+n-1)
	if !tr.Process(newer, 2000, h, &sample) {
		t.Fatal("recent TSval missed")
	}
}

func TestTSTrackerNoTimestampOption(t *testing.T) {
	tr := NewTSTracker(TSConfig{Capacity: 64})
	var sample TSSample
	a, h := mkSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, 1, 1)
	if tr.Process(a, 1000, h, &sample) {
		t.Fatal("sample from packet without TS option")
	}
	if tr.Stats().NoTS != 1 || tr.Len() != 0 {
		t.Fatalf("stats = %+v", tr.Stats())
	}
}

func TestTSTrackerFINKeepsStateRSTClears(t *testing.T) {
	tr := NewTSTracker(TSConfig{Capacity: 64})
	var sample TSSample
	a, h := mkTSSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, 100, 1)
	tr.Process(a, 1000, h, &sample)
	if tr.Len() != 1 {
		t.Fatal("flow not tracked")
	}
	// FIN from B echoes 100 (a sample) but must NOT tear down: echoes of
	// in-flight segments are still arriving during the close handshake.
	fin, _ := mkTSSummary("192.0.2.1", "10.0.0.1", 443, 5000, pkt.TCPFin|pkt.TCPAck, 900, 100)
	if !tr.Process(fin, 4000, h, &sample) {
		t.Fatal("FIN echo not sampled")
	}
	if sample.RTT != 3000 {
		t.Fatalf("RTT = %d", sample.RTT)
	}
	if tr.Len() != 1 {
		t.Fatal("FIN cleared state prematurely")
	}
	// The client's ACK of the FIN echoes the FIN's tsval — the close
	// handshake itself yields one more client-side sample.
	ackFin, _ := mkTSSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, 101, 900)
	if !tr.Process(ackFin, 6000, h, &sample) {
		t.Fatal("FIN-ACK echo not sampled")
	}
	if sample.RTT != 2000 {
		t.Fatalf("FIN-ACK RTT = %d", sample.RTT)
	}
	// RST aborts immediately.
	rst, _ := mkTSSummary("192.0.2.1", "10.0.0.1", 443, 5000, pkt.TCPRst, 902, 0)
	tr.Process(rst, 7000, h, &sample)
	if tr.Len() != 0 {
		t.Fatal("RST did not clear state")
	}
}

func TestTSTrackerIdleEviction(t *testing.T) {
	tr := NewTSTracker(TSConfig{Capacity: 256, Timeout: 1000})
	var sample TSSample
	for i := 0; i < 50; i++ {
		a, h := mkTSSummary("10.0.0.1", "192.0.2.1", uint16(5000+i), 443, pkt.TCPAck, 100, 1)
		tr.Process(a, int64(i), h, &sample)
	}
	if tr.Len() != 50 {
		t.Fatalf("len = %d", tr.Len())
	}
	tr.SweepAll(100_000)
	if tr.Len() != 0 {
		t.Fatalf("idle flows not evicted: %d", tr.Len())
	}
	if tr.Stats().Expired != 50 {
		t.Fatalf("stats = %+v", tr.Stats())
	}
}

// TestTSTrackerFlowIdentity: through a stream that fills the table, resets
// flows and lets others idle out, every flow the TS tracker gave a slot has
// expired, been closed by a RST, or is still live (ROADMAP item 14), at
// every step and after the final sweep.
func TestTSTrackerFlowIdentity(t *testing.T) {
	tr := NewTSTracker(TSConfig{Capacity: 64, Timeout: 1000})
	rng := rand.New(rand.NewSource(14))
	var sample TSSample
	ts := int64(1)
	for i := 0; i < 5000; i++ {
		ts += int64(rng.Intn(20))
		flags := uint8(pkt.TCPAck)
		if rng.Intn(10) == 0 {
			flags |= pkt.TCPRst
		}
		s, h := mkTSSummary("10.0.0.1", "192.0.2.1", uint16(5000+rng.Intn(200)), 443, flags, uint32(i+1), 0)
		tr.Process(s, ts, h, &sample)
		checkFlowIdentity(t, fmt.Sprint("packet ", i), &tr.flowTable)
	}
	tr.SweepAll(ts + 2000)
	checkFlowIdentity(t, "final sweep", &tr.flowTable)
	if st := tr.Stats(); tr.closed == 0 || st.Expired == 0 || st.TableFull == 0 || st.Occupancy != 0 {
		t.Fatalf("closed %d, stats %+v: want resets, expiries and refusals, and an empty table", tr.closed, st)
	}
}

func TestTSTrackerZeroAlloc(t *testing.T) {
	tr := NewTSTracker(TSConfig{Capacity: 1 << 12})
	var sample TSSample
	a, h := mkTSSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, 100, 50)
	b, _ := mkTSSummary("192.0.2.1", "10.0.0.1", 443, 5000, pkt.TCPAck, 900, 100)
	ts := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		ts += 2
		tr.Process(a, ts, h, &sample)
		tr.Process(b, ts+1, h, &sample)
	})
	if allocs != 0 {
		t.Fatalf("Process allocates %v per packet pair", allocs)
	}
}

func TestCanonicalKeySymmetric(t *testing.T) {
	a := netip.MustParseAddr("10.0.0.1")
	b := netip.MustParseAddr("192.0.2.1")
	k1, fromA1 := canonicalKey(a, b, 5000, 443)
	k2, fromA2 := canonicalKey(b, a, 443, 5000)
	if k1 != k2 {
		t.Fatalf("keys differ: %v vs %v", k1, k2)
	}
	if fromA1 == fromA2 {
		t.Fatal("direction flags must differ")
	}
	// Same address, different ports.
	k3, _ := canonicalKey(a, a, 9, 5)
	k4, _ := canonicalKey(a, a, 5, 9)
	if k3 != k4 {
		t.Fatal("same-addr canonicalization broken")
	}
}
