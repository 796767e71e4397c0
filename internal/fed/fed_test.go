package fed

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ruru/internal/analytics"
	"ruru/internal/mq"
	"ruru/internal/tsdb"
)

func TestProtocolCodecs(t *testing.T) {
	id, err := parseHello(appendHello(nil, "probe-7"))
	if err != nil || id != "probe-7" {
		t.Fatalf("hello round trip: %q %v", id, err)
	}
	for _, bad := range [][]byte{nil, {0}, {2, 1, 'x'}, {1}, {1, 0}, {1, 5, 'a'}} {
		if _, err := parseHello(bad); err == nil {
			t.Fatalf("parseHello(%v) accepted", bad)
		}
	}
	seq, err := parseSeq(appendSeq(nil, 42))
	if err != nil || seq != 42 {
		t.Fatalf("seq round trip: %d %v", seq, err)
	}
	if _, err := parseSeq([]byte{1, 2, 3}); err == nil {
		t.Fatal("short seq accepted")
	}

	rec := []byte("hello record")
	frame := appendBatch(nil, 9, rec)
	gotSeq, gotRec, err := parseBatch(frame)
	if err != nil || gotSeq != 9 || string(gotRec) != string(rec) {
		t.Fatalf("batch round trip: %d %q %v", gotSeq, gotRec, err)
	}
	frame[len(frame)-1] ^= 0xff
	if _, _, err := parseBatch(frame); err != ErrBadCRC {
		t.Fatalf("corrupt batch: got %v, want ErrBadCRC", err)
	}
	if _, _, err := parseBatch(frame[:11]); err != ErrBadFrame {
		t.Fatalf("short batch: got %v, want ErrBadFrame", err)
	}
}

func spoolPoints(n, base int) []tsdb.Point {
	pts := make([]tsdb.Point, n)
	for i := range pts {
		pts[i] = tsdb.Point{
			Name:   "latency",
			Tags:   []tsdb.Tag{{Key: "src_city", Value: fmt.Sprintf("C%d", i%3)}},
			Fields: []tsdb.Field{{Key: "total_ms", Value: float64(base + i)}},
			Time:   int64(base+i) * 1e6,
		}
	}
	return pts
}

func TestSpoolRecoversPending(t *testing.T) {
	dir := t.TempDir()
	sp, pending, err := openSpool(dir, 256) // tiny segments force rotation
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh spool has %d pending", len(pending))
	}
	var enc tsdb.RecordEncoder
	payloads := map[uint64][]byte{}
	for seq := uint64(1); seq <= 20; seq++ {
		payload := enc.AppendRecord(nil, spoolPoints(4, int(seq)*10))
		if err := sp.append(seq, payload); err != nil {
			t.Fatal(err)
		}
		sp.nextSeq = seq + 1
		payloads[seq] = payload
	}
	sp.ack(12)
	if err := sp.close(); err != nil {
		t.Fatal(err)
	}

	sp2, pending, err := openSpool(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.close()
	if sp2.nextSeq != 21 {
		t.Fatalf("nextSeq = %d, want 21", sp2.nextSeq)
	}
	want := uint64(13)
	for _, r := range pending {
		if r.seq != want {
			t.Fatalf("pending seq %d, want %d", r.seq, want)
		}
		if string(r.payload) != string(payloads[r.seq]) {
			t.Fatalf("payload for seq %d corrupted", r.seq)
		}
		want++
	}
	if want != 21 {
		t.Fatalf("recovered up to seq %d, want 21", want-1)
	}
}

func TestSpoolToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	sp, _, err := openSpool(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := sp.append(seq, []byte("record-payload")); err != nil {
			t.Fatal(err)
		}
	}
	seg := spoolFormat.SegmentPath(dir, sp.log.Stats().Segment)
	sp.close()
	// Crash mid-append: cut the final record's bytes.
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, b[:len(b)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	// Remove ACKED so every surviving record is pending.
	os.Remove(filepath.Join(dir, ackedName))

	sp2, pending, err := openSpool(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.close()
	if len(pending) != 2 || pending[0].seq != 1 || pending[1].seq != 2 {
		t.Fatalf("pending after tear = %+v, want seqs 1,2", pending)
	}
	if sp2.tornTail == 0 {
		t.Fatal("torn tail not counted")
	}
}

// mkEnriched builds a deterministic enriched measurement.
func mkEnriched(i int) analytics.Enriched {
	return analytics.Enriched{
		Time:       int64(i+1) * 1e6,
		InternalNs: 10e6,
		ExternalNs: 20e6,
		TotalNs:    30e6 + int64(i)*1e3,
		Src: analytics.Endpoint{City: fmt.Sprintf("City%d", i%4), CountryCode: "NZ",
			Country: "New Zealand", ASN: 4500},
		Dst: analytics.Endpoint{City: "Los Angeles", CountryCode: "US",
			Country: "United States", ASN: 100},
	}
}

func publishEnriched(bus *mq.Bus, i int) {
	e := mkEnriched(i)
	bus.Publish(mq.Message{Topic: analytics.TopicEnriched,
		Payload: analytics.MarshalEnriched(nil, &e)})
}

// countPoints queries the aggregator DB for the total applied count, and
// per-probe counts via the probe tag.
func countPoints(t *testing.T, db *tsdb.DB, probe string) int {
	t.Helper()
	q := tsdb.Query{
		Measurement: "latency", Field: "total_ms",
		Start: 0, End: 1 << 60,
		Aggs: []tsdb.AggKind{tsdb.AggCount},
	}
	if probe != "" {
		q.Where = []tsdb.Tag{{Key: "probe", Value: probe}}
	}
	res, err := db.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, sr := range res {
		for _, b := range sr.Buckets {
			n += b.Count
		}
	}
	return n
}

// setForTest sets a package-level knob to val until the test ends.
func setForTest[T any](t *testing.T, v *T, val T) {
	old := *v
	*v = val
	t.Cleanup(func() { *v = old })
}

func waitFor(t *testing.T, d time.Duration, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestFederationEndToEnd(t *testing.T) {
	setForTest(t, &batchSize, 32)
	setForTest(t, &flushEvery, 10*time.Millisecond)
	db := tsdb.Open(tsdb.Options{})
	defer db.Close()
	agg, err := NewAggregator(AggConfig{Listen: "127.0.0.1:0"}, db)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	const nProbes, perProbe = 2, 500
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var probes []*Probe
	var running sync.WaitGroup
	for pi := 0; pi < nProbes; pi++ {
		bus := mq.NewBus()
		defer bus.Close()
		pr, err := NewProbe(ProbeConfig{
			Addr: agg.Addr().String(), ID: fmt.Sprintf("probe-%d", pi),
			SpoolDir: t.TempDir(),
		}, bus)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, pr)
		running.Add(1)
		go func() { defer running.Done(); pr.Run(ctx) }()
		go func() {
			for i := 0; i < perProbe; i++ {
				publishEnriched(bus, i)
			}
		}()
	}

	waitFor(t, 10*time.Second, "all points applied", func() bool {
		written, _ := db.WriteStats()
		return written == uint64(nProbes*perProbe)
	})
	// Mid-stream disconnect: drop every connection, publish more, verify
	// replay delivers everything exactly once.
	agg.DropConnections()
	for pi := 0; pi < nProbes; pi++ {
		pr := probes[pi]
		go func() {
			for i := perProbe; i < 2*perProbe; i++ {
				e := mkEnriched(i)
				pr.feedForTest(&e)
			}
		}()
	}
	waitFor(t, 10*time.Second, "post-disconnect points applied", func() bool {
		written, _ := db.WriteStats()
		return written == uint64(2*nProbes*perProbe)
	})

	// Exactly once: total and per-probe counts match what was sent.
	if got := countPoints(t, db, ""); got != 2*nProbes*perProbe {
		t.Fatalf("total points = %d, want %d", got, 2*nProbes*perProbe)
	}
	for pi := 0; pi < nProbes; pi++ {
		if got := countPoints(t, db, fmt.Sprintf("probe-%d", pi)); got != 2*perProbe {
			t.Fatalf("probe-%d points = %d, want %d", pi, got, 2*perProbe)
		}
	}
	// Grouping by the probe tag splits the fleet.
	res, err := db.Execute(tsdb.Query{
		Measurement: "latency", Field: "total_ms",
		Start: 0, End: 1 << 60, GroupBy: "probe",
		Aggs: []tsdb.AggKind{tsdb.AggCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != nProbes {
		t.Fatalf("group_by=probe groups = %d, want %d", len(res), nProbes)
	}

	st := agg.Stats()
	if len(st.Probes) != nProbes {
		t.Fatalf("agg stats probes = %d", len(st.Probes))
	}
	for _, ps := range st.Probes {
		if !ps.Connected {
			t.Fatalf("probe %s not connected after recovery", ps.ID)
		}
	}
	// Close after Run has returned: an ack still being applied would
	// rewrite ACKED while the test's TempDir is being removed.
	cancel()
	running.Wait()
	for _, pr := range probes {
		pr.Close()
	}
}

// feedForTest injects one measurement through the probe's batch path
// without a bus (test-only shortcut used after the sub's bus is drained).
func (p *Probe) feedForTest(e *analytics.Enriched) {
	var enc tsdb.RecordEncoder
	pts := []tsdb.Point{analytics.LatencyPoint(e)}
	p.flush(context.Background(), &enc, pts)
}

func TestProbeCrashRecoveryResendsOnlyUnacked(t *testing.T) {
	setForTest(t, &batchSize, 16)
	setForTest(t, &flushEvery, 5*time.Millisecond)
	db := tsdb.Open(tsdb.Options{})
	defer db.Close()
	agg, err := NewAggregator(AggConfig{Listen: "127.0.0.1:0"}, db)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	spoolDir := t.TempDir()
	bus := mq.NewBus()
	defer bus.Close()
	pr, err := NewProbe(ProbeConfig{
		Addr: agg.Addr().String(), ID: "p0", SpoolDir: spoolDir,
	}, bus)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() { pr.Run(ctx); close(runDone) }()

	const first = 300
	for i := 0; i < first; i++ {
		publishEnriched(bus, i)
	}
	waitFor(t, 10*time.Second, "first wave applied", func() bool {
		written, _ := db.WriteStats()
		return written == first
	})

	// kill -9: cancel without Close — the spool is left as the crash
	// left it (stale ACKED and all), goroutines reaped.
	cancel()
	<-runDone

	// Restart from the same spool with the same identity.
	bus2 := mq.NewBus()
	defer bus2.Close()
	pr2, err := NewProbe(ProbeConfig{
		Addr: agg.Addr().String(), ID: "p0", SpoolDir: spoolDir,
	}, bus2)
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go pr2.Run(ctx2)

	const second = 200
	for i := first; i < first+second; i++ {
		publishEnriched(bus2, i)
	}
	waitFor(t, 10*time.Second, "second wave applied exactly once", func() bool {
		written, _ := db.WriteStats()
		return written == first+second
	})
	// Give any stray resends a moment to land, then re-assert no dups.
	time.Sleep(50 * time.Millisecond)
	if written, _ := db.WriteStats(); written != first+second {
		t.Fatalf("written = %d, want %d (duplicate applies)", written, first+second)
	}
	if got := countPoints(t, db, "p0"); got != first+second {
		t.Fatalf("queryable points = %d, want %d", got, first+second)
	}
	cancel2()
	pr2.Close()
}

// TestProbeBackpressureBound runs the probe into its unacked bound with the
// aggregator unreachable: the collector stops at maxUnacked batches, the
// subscription fills to mq.DefaultHWM and sheds the rest into Dropped. Once
// an aggregator comes up on the address, every spooled batch is applied
// exactly once and the ledger closes: points batched + Dropped == published.
func TestProbeBackpressureBound(t *testing.T) {
	// Reserve an address nobody listens on until the aggregator starts.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	const batch = 4
	setForTest(t, &batchSize, batch)
	setForTest(t, &flushEvery, 10*time.Millisecond)
	bus := mq.NewBus()
	defer bus.Close()
	pr, err := NewProbe(ProbeConfig{
		Addr: addr, ID: "bp", SpoolDir: t.TempDir(),
	}, bus)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() { pr.Run(ctx); close(runDone) }()
	defer func() {
		cancel()
		<-runDone
		pr.Close()
	}()

	// At most maxUnacked full batches, one batch in the collector's hand
	// and DefaultHWM queued messages can be absorbed; the surplus sheds.
	const surplus = 100
	published := (maxUnacked+1)*batch + mq.DefaultHWM + surplus
	for i := 0; i < published; i++ {
		publishEnriched(bus, i)
	}
	waitFor(t, 10*time.Second, "probe at its unacked bound", func() bool {
		return pr.Stats().Unacked == maxUnacked
	})
	st := pr.Stats()
	if st.Connected || st.BatchesSent != 0 {
		t.Fatalf("probe reached an unreachable aggregator: %+v", st)
	}
	if st.LastSeq != maxUnacked {
		t.Fatalf("LastSeq = %d, want %d (the collector must stop at the bound)", st.LastSeq, maxUnacked)
	}
	if st.Dropped < surplus {
		t.Fatalf("Dropped = %d, want at least the %d-message surplus", st.Dropped, surplus)
	}

	db := tsdb.Open(tsdb.Options{})
	defer db.Close()
	agg, err := NewAggregator(AggConfig{Listen: addr}, db)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	waitFor(t, 15*time.Second, "spool drained and every message accounted", func() bool {
		st := pr.Stats()
		return st.Unacked == 0 && st.PointsOut+st.Dropped == uint64(published)
	})
	st = pr.Stats()
	if st.AckedSeq != st.LastSeq || st.LastSeq <= maxUnacked {
		t.Fatalf("acked %d of %d batches, want all and more than the %d held at the bound",
			st.AckedSeq, st.LastSeq, maxUnacked)
	}
	ast := agg.Stats()
	if ast.Batches != st.LastSeq || ast.DupBatches != 0 {
		t.Fatalf("aggregator applied %d batches (%d dups), want %d exactly once",
			ast.Batches, ast.DupBatches, st.LastSeq)
	}
	if ast.Points != st.PointsOut || countPoints(t, db, "bp") != int(st.PointsOut) {
		t.Fatalf("aggregator applied %d points (%d queryable), probe batched %d",
			ast.Points, countPoints(t, db, "bp"), st.PointsOut)
	}
}

// TestDuplicateBatchDeduped drives the aggregator over a raw connection
// and pins the sequence-dedup contract directly: a batch frame replayed
// verbatim (same seq) must be acked but not applied a second time, and a
// stale seq must never regress the cumulative ack.
func TestDuplicateBatchDeduped(t *testing.T) {
	db := tsdb.Open(tsdb.Options{})
	defer db.Close()
	agg, err := NewAggregator(AggConfig{Listen: "127.0.0.1:0"}, db)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	conn, err := net.Dial("tcp", agg.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := mq.WriteFrame(conn, mq.Message{Topic: topicHello,
		Payload: appendHello(nil, "dup-probe")}); err != nil {
		t.Fatal(err)
	}
	fr := mq.NewFrameReader(conn)
	readAck := func() uint64 {
		t.Helper()
		msg, err := fr.Read()
		if err != nil || msg.Topic != topicAck {
			t.Fatalf("ack read: %v %q", err, msg.Topic)
		}
		seq, err := parseSeq(msg.Payload)
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	if got := readAck(); got != 0 {
		t.Fatalf("hello ack = %d, want 0", got)
	}

	var enc tsdb.RecordEncoder
	send := func(seq uint64, n int) {
		t.Helper()
		rec := enc.AppendRecord(nil, spoolPoints(n, int(seq)*100))
		if err := mq.WriteFrame(conn, mq.Message{Topic: topicBatch,
			Payload: appendBatch(nil, seq, rec)}); err != nil {
			t.Fatal(err)
		}
	}
	send(1, 10)
	if got := readAck(); got != 1 {
		t.Fatalf("ack = %d, want 1", got)
	}
	send(2, 5)
	if got := readAck(); got != 2 {
		t.Fatalf("ack = %d, want 2", got)
	}
	// Exact replay of seq 2 and a stale seq 1: acked at the watermark,
	// applied zero times.
	send(2, 5)
	if got := readAck(); got != 2 {
		t.Fatalf("dup ack = %d, want 2", got)
	}
	send(1, 10)
	if got := readAck(); got != 2 {
		t.Fatalf("stale ack = %d, want 2 (must not regress)", got)
	}

	if written, _ := db.WriteStats(); written != 15 {
		t.Fatalf("db has %d points, want 15 (duplicates applied)", written)
	}
	st := agg.Stats()
	if st.DupBatches != 2 || st.Batches != 2 || st.Points != 15 {
		t.Fatalf("agg stats: %+v", st)
	}
	if len(st.Probes) != 1 || st.Probes[0].LastSeq != 2 || st.Probes[0].DupBatches != 2 {
		t.Fatalf("probe stats: %+v", st.Probes)
	}
}

// TestFlushSplitsOversizedBatch pins the wire-bound guard: a batch whose
// record would exceed maxRecordBytes must split into several records (the
// aggregator rejects oversized frames on every resend — a livelock — and
// the spool scanner discards them as torn after a restart).
func TestFlushSplitsOversizedBatch(t *testing.T) {
	bus := mq.NewBus()
	defer bus.Close()
	pr, err := NewProbe(ProbeConfig{
		Addr: "127.0.0.1:1", ID: "big", SpoolDir: t.TempDir(),
	}, bus)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()

	big := make([]byte, 3<<20)
	for i := range big {
		big[i] = 'a' + byte(i%26)
	}
	pts := make([]tsdb.Point, 4)
	for i := range pts {
		pts[i] = tsdb.Point{
			Name:   string(big) + fmt.Sprint(i), // distinct shapes: no delta wins
			Fields: []tsdb.Field{{Key: "v", Value: float64(i)}},
			Time:   int64(i),
		}
	}
	var enc tsdb.RecordEncoder
	pr.flush(context.Background(), &enc, pts)

	pr.mu.Lock()
	defer pr.mu.Unlock()
	if len(pr.pending) < 2 {
		t.Fatalf("oversized batch spooled as %d record(s), want a split", len(pr.pending))
	}
	total := 0
	for _, rec := range pr.pending {
		if len(rec.payload) > maxRecordBytes {
			t.Fatalf("record of %d bytes exceeds the %d wire bound", len(rec.payload), maxRecordBytes)
		}
		if err := tsdb.DecodeRecord(rec.payload, func(*tsdb.Point) error { total++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if total != len(pts) {
		t.Fatalf("split records decode to %d points, want %d", total, len(pts))
	}
}

// TestUnwritablePointsSkippedNotLivelocked pins the aggregator against the
// deterministic write failures reachable from the wire: a CRC-valid record
// containing a fieldless point (ErrNoFields), one with a repeated field
// key (ErrBadRef: a column holds one value per point) or one with a raw
// newline in a tag value (ErrBadRef: the aggregator's next checkpoint could
// not be restored) must not wedge the stream — each such point is dropped
// and counted, the rest of the batch applies, and the batch is acked.
func TestUnwritablePointsSkippedNotLivelocked(t *testing.T) {
	db := tsdb.Open(tsdb.Options{})
	defer db.Close()
	agg, err := NewAggregator(AggConfig{Listen: "127.0.0.1:0"}, db)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	conn, err := net.Dial("tcp", agg.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := mq.WriteFrame(conn, mq.Message{Topic: topicHello,
		Payload: appendHello(nil, "hostile")}); err != nil {
		t.Fatal(err)
	}
	fr := mq.NewFrameReader(conn)
	if msg, err := fr.Read(); err != nil || msg.Topic != topicAck {
		t.Fatalf("hello ack: %v %q", err, msg.Topic)
	}

	var enc tsdb.RecordEncoder
	rec := enc.AppendRecord(nil, []tsdb.Point{
		{Name: "latency", Fields: []tsdb.Field{{Key: "total_ms", Value: 1}}, Time: 1},
		{Name: "empty", Time: 2}, // no fields
		{Name: "latency", Fields: []tsdb.Field{{Key: "total_ms", Value: 7}, {Key: "total_ms", Value: 8}}, Time: 2},
		{Name: "latency", Tags: []tsdb.Tag{{Key: "src_city", Value: "Auck\nland"}},
			Fields: []tsdb.Field{{Key: "total_ms", Value: 9}}, Time: 2},
		{Name: "latency", Fields: []tsdb.Field{{Key: "total_ms", Value: 2}}, Time: 3},
	})
	if err := mq.WriteFrame(conn, mq.Message{Topic: topicBatch,
		Payload: appendBatch(nil, 1, rec)}); err != nil {
		t.Fatal(err)
	}
	msg, err := fr.Read()
	if err != nil || msg.Topic != topicAck {
		t.Fatalf("batch not acked: %v %q (stream wedged)", err, msg.Topic)
	}
	if seq, _ := parseSeq(msg.Payload); seq != 1 {
		t.Fatalf("ack = %d, want 1", seq)
	}
	if written, _ := db.WriteStats(); written != 2 {
		t.Fatalf("db has %d points, want 2", written)
	}
	st := agg.Stats()
	if st.DecodeErrors != 3 || st.WriteErrors != 0 || st.Points != 2 {
		t.Fatalf("stats: %+v", st)
	}
	res, err := db.Execute(tsdb.Query{Measurement: "latency", Field: "total_ms",
		Start: 0, End: 10, Aggs: []tsdb.AggKind{tsdb.AggCount, tsdb.AggSum}})
	if err != nil || len(res) != 1 || res[0].Buckets[0].Count != 2 || res[0].Buckets[0].Aggs[tsdb.AggSum] != 3 {
		t.Fatalf("stored series wrong: %+v (%v)", res, err)
	}
}

// TestReusedIdentityWipedSpoolAdoptsWatermark pins the connect-time seq
// adoption: a probe whose spool was wiped under a reused identity must
// start numbering ABOVE the aggregator's remembered watermark, or its new
// measurements would be silently discarded as presumed resends.
func TestReusedIdentityWipedSpoolAdoptsWatermark(t *testing.T) {
	setForTest(t, &batchSize, 8)
	setForTest(t, &flushEvery, 2*time.Millisecond)
	db := tsdb.Open(tsdb.Options{})
	defer db.Close()
	agg, err := NewAggregator(AggConfig{Listen: "127.0.0.1:0"}, db)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	// First incarnation delivers some batches, then shuts down cleanly.
	bus := mq.NewBus()
	pr, err := NewProbe(ProbeConfig{
		Addr: agg.Addr().String(), ID: "reused", SpoolDir: t.TempDir(),
	}, bus)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { pr.Run(ctx); close(done) }()
	const first = 64
	for i := 0; i < first; i++ {
		publishEnriched(bus, i)
	}
	waitFor(t, 10*time.Second, "first incarnation applied", func() bool {
		written, _ := db.WriteStats()
		return written == first
	})
	cancel()
	<-done
	pr.Close()
	bus.Close()

	// Second incarnation: same ID, brand-new spool directory.
	bus2 := mq.NewBus()
	defer bus2.Close()
	pr2, err := NewProbe(ProbeConfig{
		Addr: agg.Addr().String(), ID: "reused", SpoolDir: t.TempDir(),
	}, bus2)
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	done2 := make(chan struct{})
	go func() { pr2.Run(ctx2); close(done2) }()
	// Wait for the hello to adopt the watermark before publishing, so no
	// batch is collected in the pre-connect window the doc warns about.
	waitFor(t, 10*time.Second, "reconnect", func() bool { return pr2.Stats().Connected })
	const second = 32
	for i := first; i < first+second; i++ {
		publishEnriched(bus2, i)
	}
	waitFor(t, 10*time.Second, "second incarnation applied (not dedup-dropped)", func() bool {
		written, _ := db.WriteStats()
		return written == first+second
	})
	if st := agg.Stats(); st.Probes[0].LastSeq <= uint64(first/8) {
		t.Fatalf("watermark not adopted: lastseq %d", st.Probes[0].LastSeq)
	}
	cancel2()
	<-done2
	pr2.Close()
}

// TestSpoolPoisonedSegmentRotates pins the failed-append discipline end to
// end (seglog's own tests pin the mechanism): after a write error the
// segment tail may hold a partial frame, so the next append must land in a
// fresh segment — otherwise the crash scanner, which stops at the first
// bad frame, would silently discard every record appended after the tear.
func TestSpoolPoisonedSegmentRotates(t *testing.T) {
	dir := t.TempDir()
	sp, _, err := openSpool(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.append(1, []byte("first-record")); err != nil {
		t.Fatal(err)
	}
	// A disk that takes three more bytes and then fails: seq 2 is left as a
	// partial frame on disk.
	sp.log.InjectWriteFault(3)
	firstSeg := sp.log.Stats().Segment
	if err := sp.append(2, []byte("torn-record")); err == nil {
		t.Fatal("append succeeded despite the injected write failure")
	}
	if sp.log.Stats().Errors == 0 {
		t.Fatal("failed append not counted")
	}
	if err := sp.append(3, []byte("third-record")); err != nil {
		t.Fatal(err)
	}
	if sp.log.Stats().Segment == firstSeg {
		t.Fatal("append after a failed write stayed on the torn segment")
	}
	sp.close()
	os.Remove(filepath.Join(dir, ackedName))

	sp2, pending, err := openSpool(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.close()
	if len(pending) != 2 || pending[0].seq != 1 || pending[1].seq != 3 {
		t.Fatalf("recovered %+v, want seqs 1 and 3 (record behind the tear lost?)", pending)
	}
	if string(pending[1].payload) != "third-record" {
		t.Fatalf("seq 3 payload corrupted: %q", pending[1].payload)
	}
	if sp2.tornTail != 1 {
		t.Fatalf("tornTail = %d, want 1 (the abandoned segment)", sp2.tornTail)
	}
}

// TestSpoolOldFormatSegmentDropped: a segment left by a probe from before
// the spool moved onto the shared frame (magic RUSP0001) is counted, removed
// and does not keep the probe from starting.
func TestSpoolOldFormatSegmentDropped(t *testing.T) {
	dir := t.TempDir()
	old := spoolFormat.SegmentPath(dir, 1)
	// RUSP0001: [8B seq][4B len][4B CRC][record] behind the magic.
	img := append([]byte("RUSP0001"), make([]byte, 16+5)...)
	if err := os.WriteFile(old, img, 0o644); err != nil {
		t.Fatal(err)
	}
	bus := mq.NewBus()
	defer bus.Close()
	pr, err := NewProbe(ProbeConfig{Addr: "127.0.0.1:1", ID: "p0", SpoolDir: dir}, bus)
	if err != nil {
		t.Fatalf("NewProbe over an old-format spool segment: %v", err)
	}
	defer pr.Close()
	if st := pr.Stats(); st.SpoolTornTails != 1 || st.Unacked != 0 || st.LastSeq != 0 {
		t.Fatalf("stats = %+v, want 1 torn tail, nothing pending", st)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Fatalf("old-format segment still on disk (err %v)", err)
	}
	if segs, _ := spoolFormat.Segments(dir); len(segs) != 1 || segs[0] != 2 {
		t.Fatalf("segments = %v, want only the fresh segment 2", segs)
	}
}

// TestProbeIdentityCap pins the maxProbes bound: the protocol is
// unauthenticated, so distinct-identity registration must be capped or
// any peer could grow the registry and series cardinality without bound.
func TestProbeIdentityCap(t *testing.T) {
	db := tsdb.Open(tsdb.Options{})
	defer db.Close()
	setForTest(t, &maxProbes, 2)
	agg, err := NewAggregator(AggConfig{Listen: "127.0.0.1:0"}, db)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	hello := func(id string) (acked bool) {
		conn, err := net.Dial("tcp", agg.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := mq.WriteFrame(conn, mq.Message{Topic: topicHello,
			Payload: appendHello(nil, id)}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		_, err = mq.NewFrameReader(conn).Read()
		return err == nil
	}
	if !hello("a") || !hello("b") {
		t.Fatal("probes under the cap rejected")
	}
	if hello("c") {
		t.Fatal("third distinct identity accepted beyond maxProbes=2")
	}
	if !hello("a") {
		t.Fatal("known identity rejected at the cap")
	}
	st := agg.Stats()
	if st.Rejected != 1 || len(st.Probes) != 2 {
		t.Fatalf("stats: rejected %d probes %d", st.Rejected, len(st.Probes))
	}
	// Oversized identity: rejected as a bad frame, never registered.
	if hello(string(make([]byte, maxProbeIDBytes+1))) {
		t.Fatal("oversized identity accepted")
	}
	if st := agg.Stats(); st.BadFrames == 0 {
		t.Fatal("oversized identity not counted as a bad frame")
	}
}
