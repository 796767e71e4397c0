package core

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"ruru/internal/nic"
	"ruru/internal/pkt"
)

// waitFor polls cond until it holds or a generous deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// fakeAdmitter records every Admitter interaction and answers with
// configurable verdicts, so the tables' admission wiring can be asserted
// without a real sketch tier.
type fakeAdmitter struct {
	refuse  bool
	promote bool

	observes  int
	admits    int
	admitted  int64 // bytes let in
	publishes int
	forced    int
	released  []struct {
		bytes    int64
		promoted bool
	}
}

func (f *fakeAdmitter) Observe(s *pkt.Summary) uint64 {
	f.observes++
	return FlowHash(1, s)
}

func (f *fakeAdmitter) Admit(entryBytes int64) (bool, bool) {
	f.admits++
	if f.refuse {
		return false, false
	}
	f.admitted += entryBytes
	return true, f.promote
}

func (f *fakeAdmitter) Release(entryBytes int64, promoted bool) {
	f.released = append(f.released, struct {
		bytes    int64
		promoted bool
	}{entryBytes, promoted})
}

func (f *fakeAdmitter) Publish(force bool) {
	f.publishes++
	if force {
		f.forced++
	}
}

func (f *fakeAdmitter) Stats() SketchStats {
	return SketchStats{
		Promoted: 7, SketchOnlyFlows: 3,
		EpsilonBytes: 11, CollisionDepth: 2,
		LiveBytes: 5, SketchBytes: 50, BudgetBytes: 100,
	}
}

func TestAdmitterRefusalKeepsFlowSketchOnly(t *testing.T) {
	fa := &fakeAdmitter{refuse: true}
	tbl := NewHandshakeTable(TableConfig{Capacity: 64, Admit: fa})
	var m Measurement
	syn, h := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPSyn, 100, 0)
	tbl.Process(syn, 1e6, h, &m)
	if fa.admits != 1 {
		t.Fatalf("admits = %d, want 1", fa.admits)
	}
	// The flow was never inserted: the rest of the handshake cannot
	// complete and the eventual ACK is midstream noise, not a measurement.
	synack, _ := mkSummary("192.0.2.1", "10.0.0.1", 443, 40000, pkt.TCPSyn|pkt.TCPAck, 900, 101)
	tbl.Process(synack, 2e6, h, &m)
	ack, _ := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPAck, 101, 901)
	if tbl.Process(ack, 3e6, h, &m) {
		t.Fatal("refused flow completed a handshake")
	}
	if st := tbl.Stats(); st.Completed != 0 || st.Occupancy != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(fa.released) != 0 {
		t.Fatal("release without admission")
	}
}

func TestAdmitterChargeReleasedOnCompletion(t *testing.T) {
	fa := &fakeAdmitter{promote: true}
	tbl := NewHandshakeTable(TableConfig{Capacity: 64, Admit: fa})
	if _, ok := handshake(t, tbl, 1e6, 31e6, 46e6); !ok {
		t.Fatal("handshake did not complete")
	}
	if fa.admits != 1 {
		t.Fatalf("admits = %d, want 1", fa.admits)
	}
	if len(fa.released) != 1 {
		t.Fatalf("releases = %d, want 1 (entry removed on completion)", len(fa.released))
	}
	if r := fa.released[0]; r.bytes != HandshakeEntryBytes || !r.promoted {
		t.Fatalf("release = %+v, want (%d, promoted)", r, HandshakeEntryBytes)
	}
}

func TestAdmitterNotReconsultedOnTupleReuse(t *testing.T) {
	fa := &fakeAdmitter{}
	tbl := NewHandshakeTable(TableConfig{Capacity: 64, Admit: fa})
	var m Measurement
	syn, h := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPSyn, 100, 0)
	tbl.Process(syn, 1e6, h, &m)
	// A new incarnation (different ISN) restarts tracking in the SAME
	// slot: the original charge carries over, no second admission and no
	// intermediate release.
	syn2, _ := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPSyn, 7777, 0)
	tbl.Process(syn2, 5e6, h, &m)
	if fa.admits != 1 {
		t.Fatalf("restart re-consulted the admitter: admits = %d", fa.admits)
	}
	if len(fa.released) != 0 {
		t.Fatalf("restart released the charge: %+v", fa.released)
	}
	synack, _ := mkSummary("192.0.2.1", "10.0.0.1", 443, 40000, pkt.TCPSyn|pkt.TCPAck, 900, 7778)
	tbl.Process(synack, 6e6, h, &m)
	ack, _ := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPAck, 7778, 901)
	if !tbl.Process(ack, 7e6, h, &m) {
		t.Fatal("restarted handshake did not complete")
	}
	if len(fa.released) != 1 {
		t.Fatalf("releases = %d, want exactly 1", len(fa.released))
	}
}

func TestAdmitterGatesTSTracker(t *testing.T) {
	mkTS := func(src, dst string, sp, dp uint16, tsval, tsecr uint32) (*pkt.Summary, uint32) {
		s, h := mkSummary(src, dst, sp, dp, pkt.TCPAck, 1000, 1)
		var opt [pkt.TimestampOptionLen]byte
		s.TCP.Options = append([]byte(nil), pkt.PutTimestampOption(opt[:], tsval, tsecr)...)
		return s, h
	}

	fa := &fakeAdmitter{refuse: true}
	tr := NewTSTracker(TSConfig{Capacity: 64, Admit: fa})
	var sample TSSample
	s, h := mkTS("10.0.0.1", "192.0.2.1", 40000, 443, 100, 0)
	tr.Process(s, 1e6, h, &sample)
	if fa.admits != 1 || tr.Len() != 0 {
		t.Fatalf("refused insert: admits=%d len=%d", fa.admits, tr.Len())
	}

	fa = &fakeAdmitter{}
	tr = NewTSTracker(TSConfig{Capacity: 64, Admit: fa})
	tr.Process(s, 1e6, h, &sample)
	if tr.Len() != 1 {
		t.Fatal("admitted flow not inserted")
	}
	rst, _ := mkSummary("192.0.2.1", "10.0.0.1", 443, 40000, pkt.TCPRst, 1, 0)
	var ropt [pkt.TimestampOptionLen]byte
	rst.TCP.Options = append([]byte(nil), pkt.PutTimestampOption(ropt[:], 900, 100)...)
	tr.Process(rst, 2e6, h, &sample)
	if len(fa.released) != 1 || fa.released[0].bytes != TSEntryBytes {
		t.Fatalf("RST teardown releases = %+v, want one of %d bytes", fa.released, TSEntryBytes)
	}
}

func TestAdmitterGatesSeqTracker(t *testing.T) {
	data, h := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPAck, 1000, 1)
	data.Payload = make([]byte, 100)

	fa := &fakeAdmitter{refuse: true}
	tr := NewSeqTracker(SeqConfig{Capacity: 64, Admit: fa})
	var sample SeqSample
	var loss LossEvent
	tr.Process(data, 1e6, h, &sample, &loss)
	if fa.admits != 1 || tr.Len() != 0 {
		t.Fatalf("refused insert: admits=%d len=%d", fa.admits, tr.Len())
	}

	fa = &fakeAdmitter{}
	tr = NewSeqTracker(SeqConfig{Capacity: 64, Timeout: 10e9, Admit: fa})
	tr.Process(data, 1e6, h, &sample, &loss)
	if tr.Len() != 1 {
		t.Fatal("admitted flow not inserted")
	}
	tr.SweepAll(1e6 + 11e9)
	if len(fa.released) != 1 || fa.released[0].bytes != SeqEntryBytes {
		t.Fatalf("idle eviction releases = %+v, want one of %d bytes", fa.released, SeqEntryBytes)
	}
}

// TestEngineAdmitterWiring: one admitter per queue, observed on every TCP
// packet before table processing, force-published at worker shutdown, and
// aggregated by SketchStats (sums for counters/bytes, max for the error
// indicators).
func TestEngineAdmitterWiring(t *testing.T) {
	pool := nic.NewMempool(256, 2048)
	port, err := nic.NewPort(nic.PortConfig{Queues: 2, QueueDepth: 64, Pool: pool, Policy: nic.Block})
	if err != nil {
		t.Fatal(err)
	}
	admits := make(map[int]*fakeAdmitter)
	eng, err := NewEngine(EngineConfig{
		Port: port, Sink: SinkFunc(func(*Measurement) {}), Burst: 8,
		Table: TableConfig{Capacity: 64},
		NewAdmitter: func(q int) Admitter {
			fa := &fakeAdmitter{}
			admits[q] = fa
			return fa
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(admits) != 2 {
		t.Fatalf("NewAdmitter called for %d queues, want 2", len(admits))
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- eng.Run(ctx) }()
	inject(port, buildFrame(t, "10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPSyn, 100, 0), 1e6)
	waitFor(t, func() bool { return eng.Stats().Table.SYNs == 1 })
	cancel()
	<-done

	total := 0
	for _, fa := range admits {
		total += fa.observes
		if fa.forced == 0 {
			t.Fatal("worker shutdown did not force-publish")
		}
	}
	if total != 1 {
		t.Fatalf("observes = %d, want 1 (one TCP packet)", total)
	}
	// Aggregation: counters and byte gauges sum across queues; the error
	// indicators (a per-tier property, not additive) take the maximum.
	st := eng.Stats().Sketch
	if st.Promoted != 14 || st.SketchOnlyFlows != 6 || st.LiveBytes != 10 ||
		st.SketchBytes != 100 || st.BudgetBytes != 200 {
		t.Fatalf("summed stats = %+v", st)
	}
	if st.EpsilonBytes != 11 || st.CollisionDepth != 2 {
		t.Fatalf("max stats = %+v", st)
	}
}

type discardSeqSink struct{}

func (discardSeqSink) EmitSeq(*SeqSample)  {}
func (discardSeqSink) EmitLoss(*LossEvent) {}

// TestEngineKeepsFlowStateAcrossRuns: the engine owns every per-queue table,
// so a second Run continues with the records (and the admitter charges) the
// first one left, and the admitter's ledger stays equal to what is live.
// When each Run built fresh trackers, the first Run's tracker records
// vanished without Release and the sketch tier's LiveBytes never came back.
func TestEngineKeepsFlowStateAcrossRuns(t *testing.T) {
	pool := nic.NewMempool(64, 2048)
	port, err := nic.NewPort(nic.PortConfig{Queues: 1, QueueDepth: 64, Pool: pool, Policy: nic.Block})
	if err != nil {
		t.Fatal(err)
	}
	fa := &fakeAdmitter{}
	eng, err := NewEngine(EngineConfig{
		Port: port, Sink: SinkFunc(func(*Measurement) {}), Burst: 8,
		TSSink:      TSSinkFunc(func(*TSSample) {}),
		SeqSink:     discardSeqSink{},
		Table:       TableConfig{Capacity: 64},
		TSTable:     TSConfig{Capacity: 64},
		SeqTable:    SeqConfig{Capacity: 64},
		NewAdmitter: func(int) Admitter { return fa },
	})
	if err != nil {
		t.Fatal(err)
	}
	// dataFrame is a timestamped data segment: one record in each tracker.
	dataFrame := func(src string) []byte {
		var opt [pkt.TimestampOptionLen]byte
		buf := make([]byte, 256)
		n, err := pkt.BuildTCPFrame(buf, &pkt.TCPFrameSpec{
			SrcMAC: pkt.MAC{1}, DstMAC: pkt.MAC{2},
			Src: netip.MustParseAddr(src), Dst: netip.MustParseAddr("192.0.2.1"),
			SrcPort: 5000, DstPort: 443, Flags: pkt.TCPAck, Seq: 1, Ack: 1,
			Options: pkt.PutTimestampOption(opt[:], 100, 0), Payload: make([]byte, 32),
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf[:n]
	}
	run := func(wantPackets uint64, frames ...[]byte) {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- eng.Run(ctx) }()
		for i, f := range frames {
			inject(port, f, int64(1e6+i))
		}
		waitFor(t, func() bool { return eng.Stats().Table.Packets == wantPackets })
		cancel()
		<-done
	}
	run(2, buildFrame(t, "10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPSyn, 100, 0), dataFrame("10.0.0.2"))
	run(3, dataFrame("10.0.0.3"))

	st := eng.Stats()
	hs, ts, seq := st.Table.Occupancy, st.TS.Occupancy, st.Seq.Occupancy
	if hs != 1 || ts != 2 || seq != 2 {
		t.Fatalf("occupancy after two runs: handshake %d, ts %d, seq %d; want 1, 2, 2", hs, ts, seq)
	}
	outstanding := fa.admitted
	for _, r := range fa.released {
		outstanding -= r.bytes
	}
	live := int64(hs)*HandshakeEntryBytes + int64(ts)*TSEntryBytes + int64(seq)*SeqEntryBytes
	if outstanding != live {
		t.Fatalf("admitter holds %d bytes for %d bytes of live entries", outstanding, live)
	}
}

func TestEngineNilAdmitterRejected(t *testing.T) {
	pool := nic.NewMempool(16, 512)
	port, _ := nic.NewPort(nic.PortConfig{Queues: 1, Pool: pool})
	_, err := NewEngine(EngineConfig{
		Port: port, Sink: SinkFunc(func(*Measurement) {}),
		Table:       TableConfig{Capacity: 64},
		NewAdmitter: func(q int) Admitter { return nil },
	})
	if err == nil {
		t.Fatal("nil admitter accepted")
	}
}
