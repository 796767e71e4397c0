package core

import (
	"net/netip"
	"testing"

	"ruru/internal/pkt"
)

// mkDataSummary builds a parsed TCP packet carrying payloadLen bytes of
// stream data.
func mkDataSummary(src, dst string, sp, dp uint16, flags uint8, seq, ack uint32, payloadLen int) (*pkt.Summary, uint32) {
	s, h := mkSummary(src, dst, sp, dp, flags, seq, ack)
	if payloadLen > 0 {
		s.Payload = make([]byte, payloadLen)
	}
	return s, h
}

func TestSeqTrackerBasicDataAck(t *testing.T) {
	tr := NewSeqTracker(SeqConfig{Capacity: 64, Queue: 2})
	var sample SeqSample
	var loss LossEvent

	// A sends 100 bytes [1000,1100) at t=1000.
	a, h := mkDataSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, 1000, 1, 100)
	if s, l := tr.Process(a, 1000, h, &sample, &loss); s || l {
		t.Fatal("data segment produced a sample or loss event")
	}
	if tr.Stats().Inserted != 1 || tr.Len() != 1 {
		t.Fatalf("stats = %+v", tr.Stats())
	}
	// B's cumulative ACK 1100 covers the edge at t=31000 → RTT 30000 for
	// B's side of the path.
	b, h2 := mkDataSummary("192.0.2.1", "10.0.0.1", 443, 5000, pkt.TCPAck, 1, 1100, 0)
	if h2 != h {
		t.Fatal("hash asymmetry")
	}
	s, l := tr.Process(b, 31000, h, &sample, &loss)
	if !s || l {
		t.Fatalf("ack: sample=%v loss=%v", s, l)
	}
	if sample.RTT != 30000 || sample.At != 31000 || sample.Queue != 2 || sample.OneDir {
		t.Fatalf("sample = %+v", sample)
	}
	if sample.Responder != netip.MustParseAddr("192.0.2.1") || sample.ResponderPort != 443 {
		t.Fatalf("responder = %v:%d", sample.Responder, sample.ResponderPort)
	}
	if st := tr.Stats(); st.Samples != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSeqTrackerDelayedAckMatchesNewestEdge(t *testing.T) {
	tr := NewSeqTracker(SeqConfig{Capacity: 64})
	var sample SeqSample
	var loss LossEvent
	a1, h := mkDataSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, 1000, 1, 100)
	tr.Process(a1, 1000, h, &sample, &loss)
	a2, _ := mkDataSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, 1100, 1, 100)
	tr.Process(a2, 2000, h, &sample, &loss)
	// One delayed ACK covers both segments: the newest edge (the segment
	// that triggered the ACK) gives the sample; both edges are consumed.
	b, _ := mkDataSummary("192.0.2.1", "10.0.0.1", 443, 5000, pkt.TCPAck, 1, 1200, 0)
	if s, _ := tr.Process(b, 3000, h, &sample, &loss); !s {
		t.Fatal("delayed ack not matched")
	}
	if sample.RTT != 1000 {
		t.Fatalf("RTT = %d, want 1000 (newest covered edge)", sample.RTT)
	}
	// Re-sending the same cumulative ACK is a duplicate, not a sample.
	s, l := tr.Process(b, 4000, h, &sample, &loss)
	if s {
		t.Fatal("repeated ack re-sampled a consumed edge")
	}
	if !l || loss.Kind != LossDupACK {
		t.Fatalf("dupack not classified: l=%v loss=%+v", l, loss)
	}
}

func TestSeqTrackerRetransFastVsRTO(t *testing.T) {
	tr := NewSeqTracker(SeqConfig{Capacity: 64}) // default 200ms threshold
	var sample SeqSample
	var loss LossEvent
	a, h := mkDataSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, 1000, 1, 100)
	tr.Process(a, 1000, h, &sample, &loss)
	// Re-sent 50ms later: fast retransmit.
	if _, l := tr.Process(a, 50e6, h, &sample, &loss); !l {
		t.Fatal("retransmission not classified")
	}
	if loss.Kind != LossRetrans || loss.Src != netip.MustParseAddr("10.0.0.1") {
		t.Fatalf("loss = %+v", loss)
	}
	// Karn's rule: the ACK of a re-sent range must not become a sample.
	b, _ := mkDataSummary("192.0.2.1", "10.0.0.1", 443, 5000, pkt.TCPAck, 1, 1100, 0)
	if s, _ := tr.Process(b, 60e6, h, &sample, &loss); s {
		t.Fatal("retransmitted range sampled")
	}
	// New range, re-sent 300ms later: RTO class.
	a2, _ := mkDataSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, 1100, 1, 100)
	tr.Process(a2, 70e6, h, &sample, &loss)
	if _, l := tr.Process(a2, 70e6+300e6, h, &sample, &loss); !l {
		t.Fatal("RTO retransmission not classified")
	}
	if loss.Kind != LossRTO {
		t.Fatalf("loss = %+v", loss)
	}
	if st := tr.Stats(); st.Retrans != 1 || st.RTO != 1 || st.Samples != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSeqTrackerDupAckCounting(t *testing.T) {
	tr := NewSeqTracker(SeqConfig{Capacity: 64})
	var sample SeqSample
	var loss LossEvent
	a, h := mkDataSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, 1000, 1, 100)
	tr.Process(a, 1000, h, &sample, &loss)
	ack := func(v uint32, ts int64) (bool, bool) {
		b, _ := mkDataSummary("192.0.2.1", "10.0.0.1", 443, 5000, pkt.TCPAck, 1, v, 0)
		return tr.Process(b, ts, h, &sample, &loss)
	}
	ack(1050, 2000) // partial ack: covers nothing, establishes lastAck
	if _, l := ack(1050, 3000); !l || loss.Kind != LossDupACK {
		t.Fatal("first dup not counted")
	}
	if _, l := ack(1050, 4000); !l {
		t.Fatal("second dup not counted")
	}
	if _, l := ack(1100, 5000); l {
		t.Fatal("advancing ack counted as dup")
	}
	if st := tr.Stats(); st.DupACK != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSeqTrackerLoneSYNRSTNeverEnters pins the regression from the
// handshake table's PR-2 bug in the new tracker: control-only flows — a
// lone SYN|RST probe, bare SYNs, SYN-ACKs, pure ACKs, RSTs — must never
// occupy a tracker slot. Only stream data creates state.
func TestSeqTrackerLoneSYNRSTNeverEnters(t *testing.T) {
	tr := NewSeqTracker(SeqConfig{Capacity: 64})
	var sample SeqSample
	var loss LossEvent
	for _, tc := range []struct {
		name  string
		flags uint8
	}{
		{"syn_rst", pkt.TCPSyn | pkt.TCPRst},
		{"syn", pkt.TCPSyn},
		{"synack", pkt.TCPSyn | pkt.TCPAck},
		{"rst", pkt.TCPRst},
		{"pure_ack", pkt.TCPAck},
	} {
		s, h := mkDataSummary("10.0.0.9", "192.0.2.9", 6000, 80, tc.flags, 7, 7, 0)
		gotS, gotL := tr.Process(s, 1000, h, &sample, &loss)
		if gotS || gotL {
			t.Fatalf("%s: produced output", tc.name)
		}
		if tr.Len() != 0 {
			t.Fatalf("%s: entered the tracker", tc.name)
		}
	}
	// A SYN carrying payload (TFO-style) must also stay out: SYN space is
	// the handshake table's.
	s, h := mkDataSummary("10.0.0.9", "192.0.2.9", 6000, 80, pkt.TCPSyn|pkt.TCPRst, 7, 7, 10)
	tr.Process(s, 1000, h, &sample, &loss)
	if tr.Len() != 0 {
		t.Fatal("SYN with payload entered the tracker")
	}
}

func TestSeqTrackerRSTClearsState(t *testing.T) {
	tr := NewSeqTracker(SeqConfig{Capacity: 64})
	var sample SeqSample
	var loss LossEvent
	a, h := mkDataSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, 1000, 1, 100)
	tr.Process(a, 1000, h, &sample, &loss)
	if tr.Len() != 1 {
		t.Fatal("flow not tracked")
	}
	// The RST's own ACK may still close a sample before teardown.
	rst, _ := mkDataSummary("192.0.2.1", "10.0.0.1", 443, 5000, pkt.TCPRst|pkt.TCPAck, 1, 1100, 0)
	if s, _ := tr.Process(rst, 4000, h, &sample, &loss); !s {
		t.Fatal("RST ack not matched")
	}
	if sample.RTT != 3000 {
		t.Fatalf("RTT = %d", sample.RTT)
	}
	if tr.Len() != 0 {
		t.Fatal("RST did not clear state")
	}
}

func TestSeqTrackerWraparound(t *testing.T) {
	tr := NewSeqTracker(SeqConfig{Capacity: 64})
	var sample SeqSample
	var loss LossEvent
	// Segment [0xFFFFFF00, 0x100) wraps the sequence space.
	a, h := mkDataSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, 0xFFFFFF00, 1, 0x200)
	tr.Process(a, 1000, h, &sample, &loss)
	b, _ := mkDataSummary("192.0.2.1", "10.0.0.1", 443, 5000, pkt.TCPAck, 1, 0x100, 0)
	if s, _ := tr.Process(b, 2500, h, &sample, &loss); !s {
		t.Fatal("wrapped edge not covered")
	}
	if sample.RTT != 1500 {
		t.Fatalf("RTT = %d", sample.RTT)
	}
	// Post-wrap data still advances, pre-wrap range is a retransmission.
	a2, _ := mkDataSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, 0x100, 1, 0x100)
	if _, l := tr.Process(a2, 3000, h, &sample, &loss); l {
		t.Fatal("post-wrap data misclassified as retransmission")
	}
	old, _ := mkDataSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, 0xFFFFFF80, 1, 0x40)
	if _, l := tr.Process(old, 4000, h, &sample, &loss); !l {
		t.Fatal("pre-wrap re-send not classified")
	}
}

func TestSeqTrackerOneDirection(t *testing.T) {
	tr := NewSeqTracker(SeqConfig{Capacity: 64, OneDirection: true})
	var sample SeqSample
	var loss LossEvent
	// Only A→B is visible. A's request at t=1000 records its current
	// cumulative ACK (500).
	a1, h := mkDataSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, 1000, 500, 100)
	if s, _ := tr.Process(a1, 1000, h, &sample, &loss); s {
		t.Fatal("request sampled itself")
	}
	// A's next request acks 800: B's response arrived in between → the
	// loop closed, RTT = 5000-1000.
	a2, _ := mkDataSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, 1100, 800, 100)
	if s, _ := tr.Process(a2, 5000, h, &sample, &loss); !s {
		t.Fatal("ack advance did not close the sample")
	}
	if !sample.OneDir || sample.RTT != 4000 {
		t.Fatalf("sample = %+v", sample)
	}
	if sample.Responder != netip.MustParseAddr("192.0.2.1") {
		t.Fatalf("responder = %v (want the invisible peer)", sample.Responder)
	}
	// A pure ACK advancing past the second request's recorded value
	// closes that sample too.
	a3, _ := mkDataSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, 1200, 1200, 0)
	if s, _ := tr.Process(a3, 9000, h, &sample, &loss); !s {
		t.Fatal("pure-ack advance did not close the sample")
	}
	if sample.RTT != 4000 {
		t.Fatalf("RTT = %d", sample.RTT)
	}
	if st := tr.Stats(); st.Samples != 2 || st.OneDirSamples != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSeqTrackerOneDirectionTSecrAdvance(t *testing.T) {
	tr := NewSeqTracker(SeqConfig{Capacity: 64, OneDirection: true})
	var sample SeqSample
	var loss LossEvent
	mk := func(seq, ack, tsval, tsecr uint32, n int) (*pkt.Summary, uint32) {
		s, h := mkDataSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, seq, ack, n)
		var opt [pkt.TimestampOptionLen]byte
		s.TCP.Options = append([]byte(nil), pkt.PutTimestampOption(opt[:], tsval, tsecr)...)
		return s, h
	}
	// Request at t=1000 echoing B's TSval 700; ack never advances (B
	// responds with pure window updates the tap cannot see acked), but the
	// echoed TSecr does — the self-pairing fallback the ISSUE calls TSval
	// self-pairing.
	a1, h := mk(1000, 500, 10, 700, 100)
	tr.Process(a1, 1000, h, &sample, &loss)
	a2, _ := mk(1100, 500, 20, 900, 100)
	if s, _ := tr.Process(a2, 7000, h, &sample, &loss); !s {
		t.Fatal("tsecr advance did not close the sample")
	}
	if !sample.OneDir || sample.RTT != 6000 {
		t.Fatalf("sample = %+v", sample)
	}
}

func TestSeqTrackerDeferTS(t *testing.T) {
	tr := NewSeqTracker(SeqConfig{Capacity: 64, DeferTS: true})
	var sample SeqSample
	var loss LossEvent
	mkTS := func(src, dst string, sp, dp uint16, seq, ack uint32, n int) (*pkt.Summary, uint32) {
		s, h := mkDataSummary(src, dst, sp, dp, pkt.TCPAck, seq, ack, n)
		var opt [pkt.TimestampOptionLen]byte
		s.TCP.Options = append([]byte(nil), pkt.PutTimestampOption(opt[:], 10, 20)...)
		return s, h
	}
	// A timestamp-bearing flow: the TS tracker owns its RTT samples.
	a, h := mkTS("10.0.0.1", "192.0.2.1", 5000, 443, 1000, 1, 100)
	tr.Process(a, 1000, h, &sample, &loss)
	if tr.Stats().Inserted != 0 {
		t.Fatal("TS-bearing data registered an edge under DeferTS")
	}
	b, _ := mkTS("192.0.2.1", "10.0.0.1", 443, 5000, 1, 1100, 0)
	if s, _ := tr.Process(b, 2000, h, &sample, &loss); s {
		t.Fatal("TS-bearing flow double-counted")
	}
	// Loss classification is NOT deferred — the TS tracker has none.
	if _, l := tr.Process(a, 3000, h, &sample, &loss); !l || loss.Kind != LossRetrans {
		t.Fatalf("retransmission on TS flow not classified: %+v", loss)
	}
	// A no-TS flow beside it still samples normally.
	c, h2 := mkDataSummary("10.0.0.2", "192.0.2.2", 5000, 443, pkt.TCPAck, 1000, 1, 100)
	tr.Process(c, 1000, h2, &sample, &loss)
	d, _ := mkDataSummary("192.0.2.2", "10.0.0.2", 443, 5000, pkt.TCPAck, 1, 1100, 0)
	if s, _ := tr.Process(d, 4000, h2, &sample, &loss); !s {
		t.Fatal("no-TS flow not sampled under DeferTS")
	}
}

func TestSeqTrackerPendingWindowEviction(t *testing.T) {
	tr := NewSeqTracker(SeqConfig{Capacity: 64})
	var sample SeqSample
	var loss LossEvent
	const n = seqPendingSlots + 2
	var h uint32
	for i := uint32(0); i < n; i++ {
		a, hh := mkDataSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, 1000+100*i, 1, 100)
		h = hh
		tr.Process(a, int64(1000+i), h, &sample, &loss)
	}
	// An ACK covering only the two rolled-out edges matches nothing and is
	// an advancing miss.
	b, _ := mkDataSummary("192.0.2.1", "10.0.0.1", 443, 5000, pkt.TCPAck, 1, 1200, 0)
	if s, _ := tr.Process(b, 2000, h, &sample, &loss); s {
		t.Fatal("evicted edge matched")
	}
	if tr.Stats().Unmatched != 0 {
		t.Fatalf("non-advancing ack counted unmatched: %+v", tr.Stats())
	}
	// Covering everything matches the newest retained edge.
	c, _ := mkDataSummary("192.0.2.1", "10.0.0.1", 443, 5000, pkt.TCPAck, 1, 1000+100*n, 0)
	if s, _ := tr.Process(c, 3000, h, &sample, &loss); !s {
		t.Fatal("retained edge missed")
	}
}

func TestSeqTrackerIdleEviction(t *testing.T) {
	tr := NewSeqTracker(SeqConfig{Capacity: 256, Timeout: 1000})
	var sample SeqSample
	var loss LossEvent
	for i := 0; i < 50; i++ {
		a, h := mkDataSummary("10.0.0.1", "192.0.2.1", uint16(5000+i), 443, pkt.TCPAck, 1000, 1, 10)
		tr.Process(a, int64(i), h, &sample, &loss)
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

func TestSeqTrackerZeroAlloc(t *testing.T) {
	tr := NewSeqTracker(SeqConfig{Capacity: 1 << 12})
	var sample SeqSample
	var loss LossEvent
	a, h := mkDataSummary("10.0.0.1", "192.0.2.1", 5000, 443, pkt.TCPAck, 1000, 1, 100)
	b, _ := mkDataSummary("192.0.2.1", "10.0.0.1", 443, 5000, pkt.TCPAck, 1, 1100, 0)
	ts := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		ts += 2
		a.TCP.Seq += 100
		b.TCP.Ack += 100
		tr.Process(a, ts, h, &sample, &loss)
		tr.Process(b, ts+1, h, &sample, &loss)
	})
	if allocs != 0 {
		t.Fatalf("Process allocates %v per packet pair", allocs)
	}
}
