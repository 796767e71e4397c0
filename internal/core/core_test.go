package core

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ruru/internal/nic"
	"ruru/internal/pkt"
	"ruru/internal/rss"
)

var hasher = rss.NewSymmetric()

// mkSummary builds a parsed TCP packet summary directly (no wire format
// needed for table unit tests).
func mkSummary(src, dst string, sp, dp uint16, flags uint8, seq, ack uint32) (*pkt.Summary, uint32) {
	s := &pkt.Summary{}
	srcA, dstA := netip.MustParseAddr(src), netip.MustParseAddr(dst)
	if srcA.Is4() {
		s.IP4.Src, s.IP4.Dst = srcA, dstA
		s.IPv6 = false
	} else {
		s.IP6.Src, s.IP6.Dst = srcA, dstA
		s.IPv6 = true
	}
	s.Decoded = pkt.LayerEthernet | pkt.LayerIPv4 | pkt.LayerTCP
	s.TCP = pkt.TCP{SrcPort: sp, DstPort: dp, Flags: flags, Seq: seq, Ack: ack}
	return s, hasher.HashTuple(srcA, dstA, sp, dp)
}

// handshake drives a full 3-way handshake through the table at the given
// timestamps, returning the measurement.
func handshake(t *testing.T, tbl *HandshakeTable, t1, t2, t3 int64) (Measurement, bool) {
	t.Helper()
	var m Measurement
	syn, h := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPSyn, 100, 0)
	if tbl.Process(syn, t1, h, &m) {
		t.Fatal("SYN completed a handshake")
	}
	synack, h2 := mkSummary("192.0.2.1", "10.0.0.1", 443, 40000, pkt.TCPSyn|pkt.TCPAck, 900, 101)
	if h2 != h {
		t.Fatal("symmetric hash mismatch") // sanity: same queue
	}
	if tbl.Process(synack, t2, h2, &m) {
		t.Fatal("SYN-ACK completed a handshake")
	}
	ack, h3 := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPAck, 101, 901)
	return m, tbl.Process(ack, t3, h3, &m)
}

func TestHandshakeLatencyCalculation(t *testing.T) {
	// Figure 1 semantics: external = t2-t1, internal = t3-t2.
	tbl := NewHandshakeTable(TableConfig{Capacity: 1024, Queue: 3})
	m, ok := handshake(t, tbl, 1_000_000, 31_000_000, 46_000_000)
	if !ok {
		t.Fatal("handshake did not complete")
	}
	if m.External != 30_000_000 {
		t.Fatalf("external = %d, want 30ms", m.External)
	}
	if m.Internal != 15_000_000 {
		t.Fatalf("internal = %d, want 15ms", m.Internal)
	}
	if m.Total != 45_000_000 || m.Total != m.Internal+m.External {
		t.Fatalf("total = %d", m.Total)
	}
	if m.SYNTime != 1_000_000 || m.SYNACKTime != 31_000_000 || m.ACKTime != 46_000_000 {
		t.Fatalf("timestamps: %+v", m)
	}
	if m.Queue != 3 {
		t.Fatalf("queue = %d", m.Queue)
	}
	if m.Flow.Client != netip.MustParseAddr("10.0.0.1") || m.Flow.ServerPort != 443 {
		t.Fatalf("flow = %v", m.Flow)
	}
	st := tbl.Stats()
	if st.SYNs != 1 || st.SYNACKs != 1 || st.Completed != 1 || st.Occupancy != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEntryRemovedAfterCompletion(t *testing.T) {
	tbl := NewHandshakeTable(TableConfig{Capacity: 64})
	if _, ok := handshake(t, tbl, 1, 2, 3); !ok {
		t.Fatal("no completion")
	}
	// A second identical ACK must now be counted as midstream.
	var m Measurement
	ack, h := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPAck, 101, 901)
	if tbl.Process(ack, 4, h, &m) {
		t.Fatal("duplicate ACK completed again")
	}
	if tbl.Stats().MidstreamACKs != 1 {
		t.Fatalf("stats = %+v", tbl.Stats())
	}
}

func TestSYNRetransmissionKeepsFirstTimestamp(t *testing.T) {
	tbl := NewHandshakeTable(TableConfig{Capacity: 64})
	var m Measurement
	syn, h := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPSyn, 100, 0)
	tbl.Process(syn, 1000, h, &m)
	tbl.Process(syn, 2000, h, &m) // retransmission, same ISN
	synack, _ := mkSummary("192.0.2.1", "10.0.0.1", 443, 40000, pkt.TCPSyn|pkt.TCPAck, 900, 101)
	tbl.Process(synack, 3000, h, &m)
	ack, _ := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPAck, 101, 901)
	if !tbl.Process(ack, 4000, h, &m) {
		t.Fatal("no completion")
	}
	if m.External != 2000 { // 3000 - 1000, from the FIRST SYN
		t.Fatalf("external = %d", m.External)
	}
	if m.SYNRetrans != 1 {
		t.Fatalf("retrans = %d", m.SYNRetrans)
	}
	if tbl.Stats().SYNRetrans != 1 {
		t.Fatalf("stats = %+v", tbl.Stats())
	}
}

func TestSYNACKRetransmissionKeepsFirst(t *testing.T) {
	tbl := NewHandshakeTable(TableConfig{Capacity: 64})
	var m Measurement
	syn, h := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPSyn, 100, 0)
	tbl.Process(syn, 1000, h, &m)
	synack, _ := mkSummary("192.0.2.1", "10.0.0.1", 443, 40000, pkt.TCPSyn|pkt.TCPAck, 900, 101)
	tbl.Process(synack, 2000, h, &m)
	tbl.Process(synack, 5000, h, &m) // retransmitted SYN-ACK
	ack, _ := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPAck, 101, 901)
	if !tbl.Process(ack, 6000, h, &m) {
		t.Fatal("no completion")
	}
	if m.External != 1000 || m.Internal != 4000 {
		t.Fatalf("external/internal = %d/%d", m.External, m.Internal)
	}
}

func TestNewIncarnationRestartsTracking(t *testing.T) {
	tbl := NewHandshakeTable(TableConfig{Capacity: 64})
	var m Measurement
	syn1, h := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPSyn, 100, 0)
	tbl.Process(syn1, 1000, h, &m)
	// Same tuple, different ISN: a new connection attempt.
	syn2, _ := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPSyn, 777, 0)
	tbl.Process(syn2, 9000, h, &m)
	synack, _ := mkSummary("192.0.2.1", "10.0.0.1", 443, 40000, pkt.TCPSyn|pkt.TCPAck, 900, 778)
	tbl.Process(synack, 10000, h, &m)
	ack, _ := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPAck, 778, 901)
	if !tbl.Process(ack, 11000, h, &m) {
		t.Fatal("no completion")
	}
	if m.External != 1000 || m.SYNTime != 9000 {
		t.Fatalf("measurement tracked the stale incarnation: %+v", m)
	}
}

func TestInvalidACKRejected(t *testing.T) {
	tbl := NewHandshakeTable(TableConfig{Capacity: 64})
	var m Measurement
	syn, h := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPSyn, 100, 0)
	tbl.Process(syn, 1000, h, &m)
	synack, _ := mkSummary("192.0.2.1", "10.0.0.1", 443, 40000, pkt.TCPSyn|pkt.TCPAck, 900, 101)
	tbl.Process(synack, 2000, h, &m)
	// Wrong ack number (not serverISN+1).
	bad, _ := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPAck, 101, 12345)
	if tbl.Process(bad, 3000, h, &m) {
		t.Fatal("invalid ACK completed handshake")
	}
	if tbl.Stats().InvalidACKs != 1 {
		t.Fatalf("stats = %+v", tbl.Stats())
	}
	// The correct ACK still completes.
	good, _ := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPAck, 101, 901)
	if !tbl.Process(good, 4000, h, &m) {
		t.Fatal("valid ACK rejected")
	}
}

func TestOrphanSYNACK(t *testing.T) {
	tbl := NewHandshakeTable(TableConfig{Capacity: 64})
	var m Measurement
	synack, h := mkSummary("192.0.2.1", "10.0.0.1", 443, 40000, pkt.TCPSyn|pkt.TCPAck, 900, 101)
	if tbl.Process(synack, 1000, h, &m) {
		t.Fatal("orphan SYN-ACK completed")
	}
	if tbl.Stats().OrphanSYNACKs != 1 || tbl.Len() != 0 {
		t.Fatalf("stats = %+v", tbl.Stats())
	}
}

func TestRSTAbortsEitherDirection(t *testing.T) {
	for _, fromClient := range []bool{true, false} {
		tbl := NewHandshakeTable(TableConfig{Capacity: 64})
		var m Measurement
		syn, h := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPSyn, 100, 0)
		tbl.Process(syn, 1000, h, &m)
		var rst *pkt.Summary
		if fromClient {
			rst, _ = mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPRst, 101, 0)
		} else {
			rst, _ = mkSummary("192.0.2.1", "10.0.0.1", 443, 40000, pkt.TCPRst|pkt.TCPAck, 0, 101)
		}
		tbl.Process(rst, 2000, h, &m)
		if tbl.Len() != 0 || tbl.Stats().Aborted != 1 {
			t.Fatalf("fromClient=%v: len=%d stats=%+v", fromClient, tbl.Len(), tbl.Stats())
		}
	}
}

func TestSYNRSTNeverInsertsOrRestarts(t *testing.T) {
	// Regression: IsSYN only checks SYN-set/ACK-clear, so a SYN|RST packet
	// used to hit the insert branch (RST was checked last) and corrupt the
	// table with a flow that can never complete.
	tbl := NewHandshakeTable(TableConfig{Capacity: 64})
	var m Measurement
	synrst, h := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPSyn|pkt.TCPRst, 100, 0)
	if tbl.Process(synrst, 1000, h, &m) {
		t.Fatal("SYN|RST completed a handshake")
	}
	if tbl.Len() != 0 {
		t.Fatalf("SYN|RST inserted a flow (live=%d)", tbl.Len())
	}
	if st := tbl.Stats(); st.SYNs != 0 {
		t.Fatalf("SYN|RST counted as SYN: %+v", st)
	}

	// Against a live flow, SYN|RST (with a new ISN — the old code's
	// "new incarnation" restart path) must abort, not restart tracking.
	syn, h := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPSyn, 200, 0)
	tbl.Process(syn, 2000, h, &m)
	if tbl.Len() != 1 {
		t.Fatalf("live = %d after SYN", tbl.Len())
	}
	if tbl.Process(synrst, 3000, h, &m) {
		t.Fatal("SYN|RST completed a handshake")
	}
	if tbl.Len() != 0 || tbl.Stats().Aborted != 1 {
		t.Fatalf("SYN|RST did not abort: live=%d stats=%+v", tbl.Len(), tbl.Stats())
	}
}

func TestRSTACKAbortsPendingFlow(t *testing.T) {
	// RST|ACK — the common refusal a server sends to a SYN — must take the
	// abort path in either orientation, never the ACK-matching path.
	for _, fromClient := range []bool{true, false} {
		tbl := NewHandshakeTable(TableConfig{Capacity: 64})
		var m Measurement
		syn, h := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPSyn, 100, 0)
		tbl.Process(syn, 1000, h, &m)
		var rstack *pkt.Summary
		if fromClient {
			rstack, _ = mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPRst|pkt.TCPAck, 101, 0)
		} else {
			rstack, _ = mkSummary("192.0.2.1", "10.0.0.1", 443, 40000, pkt.TCPRst|pkt.TCPAck, 0, 101)
		}
		if tbl.Process(rstack, 2000, h, &m) {
			t.Fatal("RST|ACK completed a handshake")
		}
		st := tbl.Stats()
		if tbl.Len() != 0 || st.Aborted != 1 {
			t.Fatalf("fromClient=%v: len=%d stats=%+v", fromClient, tbl.Len(), st)
		}
		if st.InvalidACKs != 0 || st.MidstreamACKs != 0 {
			t.Fatalf("fromClient=%v: RST|ACK hit the ACK path: %+v", fromClient, st)
		}
	}
}

func TestExpiryFeedsSYNFloodSignal(t *testing.T) {
	tbl := NewHandshakeTable(TableConfig{Capacity: 1024, Timeout: 1000})
	var m Measurement
	for i := 0; i < 100; i++ {
		syn, h := mkSummary("10.0.0.1", "192.0.2.1", uint16(1000+i), 443, pkt.TCPSyn, 1, 0)
		tbl.Process(syn, int64(i), h, &m)
	}
	if tbl.Len() != 100 {
		t.Fatalf("len = %d", tbl.Len())
	}
	tbl.SweepAll(10_000)
	if tbl.Len() != 0 {
		t.Fatalf("len after sweep = %d", tbl.Len())
	}
	st := tbl.Stats()
	if st.Expired != 100 || st.ExpiredAwait != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestIncrementalSweepEvicts(t *testing.T) {
	// Run traffic long enough that maybeSweep alone (no SweepAll) evicts
	// the stale entries.
	tbl := NewHandshakeTable(TableConfig{Capacity: 256, Timeout: 1000})
	var m Measurement
	for i := 0; i < 50; i++ {
		syn, h := mkSummary("10.0.0.2", "192.0.2.1", uint16(2000+i), 443, pkt.TCPSyn, 1, 0)
		tbl.Process(syn, int64(i), h, &m)
	}
	// Keep feeding unrelated packets with advancing time; the stale
	// entries must be swept out along the way.
	for ts := int64(2000); ts < 200_000; ts += 100 {
		ack, h := mkSummary("10.9.9.9", "192.0.2.9", 5000, 80, pkt.TCPAck, 1, 1)
		tbl.Process(ack, ts, h, &m)
	}
	if tbl.Len() != 0 {
		t.Fatalf("incremental sweep left %d entries", tbl.Len())
	}
}

func TestTableFull(t *testing.T) {
	tbl := NewHandshakeTable(TableConfig{Capacity: 64}) // maxLive = 54
	var m Measurement
	full := 0
	for i := 0; i < 64; i++ {
		syn, h := mkSummary("10.0.0.1", "192.0.2.1", uint16(1000+i), 443, pkt.TCPSyn, 1, 0)
		tbl.Process(syn, int64(i), h, &m)
		if tbl.Stats().TableFull > 0 && full == 0 {
			full = i
		}
	}
	st := tbl.Stats()
	if st.TableFull == 0 {
		t.Fatal("table never reported full")
	}
	if tbl.Len() > 64*85/100 {
		t.Fatalf("live entries %d exceed load limit", tbl.Len())
	}
}

func TestManyConcurrentFlowsAllMeasured(t *testing.T) {
	// Interleave 1000 handshakes; all must complete with exact latencies.
	tbl := NewHandshakeTable(TableConfig{Capacity: 4096})
	var m Measurement
	type flow struct {
		sp     uint16
		t1, t2 int64
	}
	flows := make([]flow, 1000)
	for i := range flows {
		flows[i] = flow{sp: uint16(1024 + i), t1: int64(i * 10)}
		syn, h := mkSummary("10.0.0.1", "192.0.2.1", flows[i].sp, 443, pkt.TCPSyn, uint32(i), 0)
		if tbl.Process(syn, flows[i].t1, h, &m) {
			t.Fatal("SYN completed")
		}
	}
	for i := range flows {
		flows[i].t2 = int64(100000 + i*10)
		synack, h := mkSummary("192.0.2.1", "10.0.0.1", 443, flows[i].sp, pkt.TCPSyn|pkt.TCPAck, 5000, uint32(i)+1)
		if tbl.Process(synack, flows[i].t2, h, &m) {
			t.Fatal("SYN-ACK completed")
		}
	}
	completed := 0
	for i := range flows {
		t3 := int64(200000 + i*10)
		ack, h := mkSummary("10.0.0.1", "192.0.2.1", flows[i].sp, 443, pkt.TCPAck, uint32(i)+1, 5001)
		if tbl.Process(ack, t3, h, &m) {
			completed++
			if m.External != flows[i].t2-flows[i].t1 {
				t.Fatalf("flow %d external = %d, want %d", i, m.External, flows[i].t2-flows[i].t1)
			}
			if m.Internal != t3-flows[i].t2 {
				t.Fatalf("flow %d internal = %d", i, m.Internal)
			}
		}
	}
	if completed != 1000 {
		t.Fatalf("completed %d/1000", completed)
	}
	if tbl.Len() != 0 {
		t.Fatalf("table not empty: %d", tbl.Len())
	}
}

func TestBackwardShiftDeletionPreservesLookups(t *testing.T) {
	// Force collisions in a tiny table and verify deletions never break
	// other flows' probe chains.
	tbl := NewHandshakeTable(TableConfig{Capacity: 16})
	var m Measurement
	ports := []uint16{1, 2, 3, 4, 5, 6, 7, 8}
	for _, p := range ports {
		syn, h := mkSummary("10.0.0.1", "192.0.2.1", p, 443, pkt.TCPSyn, uint32(p), 0)
		tbl.Process(syn, 1, h, &m)
	}
	// Abort half via RST, then complete the rest.
	for _, p := range ports[:4] {
		rst, h := mkSummary("10.0.0.1", "192.0.2.1", p, 443, pkt.TCPRst, uint32(p)+1, 0)
		tbl.Process(rst, 2, h, &m)
	}
	for _, p := range ports[4:] {
		synack, h := mkSummary("192.0.2.1", "10.0.0.1", 443, p, pkt.TCPSyn|pkt.TCPAck, 100, uint32(p)+1)
		tbl.Process(synack, 3, h, &m)
		ack, _ := mkSummary("10.0.0.1", "192.0.2.1", p, 443, pkt.TCPAck, uint32(p)+1, 101)
		if !tbl.Process(ack, 4, h, &m) {
			t.Fatalf("flow on port %d lost after deletions", p)
		}
	}
	if tbl.Len() != 0 {
		t.Fatalf("len = %d", tbl.Len())
	}
}

func TestProcessZeroAlloc(t *testing.T) {
	tbl := NewHandshakeTable(TableConfig{Capacity: 1 << 12})
	var m Measurement
	syn, h := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPSyn, 100, 0)
	synack, _ := mkSummary("192.0.2.1", "10.0.0.1", 443, 40000, pkt.TCPSyn|pkt.TCPAck, 900, 101)
	ack, _ := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPAck, 101, 901)
	ts := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		ts += 3
		tbl.Process(syn, ts, h, &m)
		tbl.Process(synack, ts+1, h, &m)
		tbl.Process(ack, ts+2, h, &m)
	})
	if allocs != 0 {
		t.Fatalf("Process allocates %v per handshake; fast path must not allocate", allocs)
	}
}

func TestHandshakePropertyRandomizedLatencies(t *testing.T) {
	// For arbitrary t1 < t2 < t3, the engine reports exactly
	// external=t2-t1, internal=t3-t2, total=t3-t1.
	f := func(d1, d2 uint32, port uint16, isn uint32) bool {
		if port == 0 {
			port = 1
		}
		t1 := int64(1000)
		t2 := t1 + int64(d1%1_000_000_000) + 1
		t3 := t2 + int64(d2%1_000_000_000) + 1
		tbl := NewHandshakeTable(TableConfig{Capacity: 64})
		var m Measurement
		syn, h := mkSummary("10.0.0.1", "192.0.2.1", port, 443, pkt.TCPSyn, isn, 0)
		tbl.Process(syn, t1, h, &m)
		synack, _ := mkSummary("192.0.2.1", "10.0.0.1", 443, port, pkt.TCPSyn|pkt.TCPAck, isn+7, isn+1)
		tbl.Process(synack, t2, h, &m)
		ack, _ := mkSummary("10.0.0.1", "192.0.2.1", port, 443, pkt.TCPAck, isn+1, isn+8)
		if !tbl.Process(ack, t3, h, &m) {
			return false
		}
		return m.External == t2-t1 && m.Internal == t3-t2 && m.Total == t3-t1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIPv6Handshake(t *testing.T) {
	tbl := NewHandshakeTable(TableConfig{Capacity: 64})
	var m Measurement
	syn, h := mkSummary("2001:db8::1", "2001:db8::2", 50000, 443, pkt.TCPSyn, 9, 0)
	tbl.Process(syn, 100, h, &m)
	synack, _ := mkSummary("2001:db8::2", "2001:db8::1", 443, 50000, pkt.TCPSyn|pkt.TCPAck, 77, 10)
	tbl.Process(synack, 200, h, &m)
	ack, _ := mkSummary("2001:db8::1", "2001:db8::2", 50000, 443, pkt.TCPAck, 10, 78)
	if !tbl.Process(ack, 350, h, &m) {
		t.Fatal("v6 handshake did not complete")
	}
	if !m.IPv6 || m.External != 100 || m.Internal != 150 {
		t.Fatalf("measurement: %+v", m)
	}
}

// --- Engine integration tests ---

func buildFrame(t testing.TB, src, dst string, sp, dp uint16, flags uint8, seq, ack uint32) []byte {
	t.Helper()
	spec := &pkt.TCPFrameSpec{
		SrcMAC: pkt.MAC{1}, DstMAC: pkt.MAC{2},
		Src: netip.MustParseAddr(src), Dst: netip.MustParseAddr(dst),
		SrcPort: sp, DstPort: dp, Flags: flags, Seq: seq, Ack: ack, Window: 65535,
	}
	buf := make([]byte, 128)
	n, err := pkt.BuildTCPFrame(buf, spec)
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

// inject hands port one frame as a burst of one and reports whether the
// port enqueued it.
func inject(port *nic.Port, frame []byte, ts int64) bool {
	return port.InjectBurst([]nic.Frame{{Data: frame, TS: ts}}) == 1
}

func TestEngineEndToEnd(t *testing.T) {
	// Burst 1 is the degenerate poll: one frame per ring round-trip.
	for _, burst := range []int{1, 32} {
		t.Run(fmt.Sprintf("burst=%d", burst), func(t *testing.T) { testEngineEndToEnd(t, burst) })
	}
}

func testEngineEndToEnd(t *testing.T, burst int) {
	// Correctness harness: the source must be lossless, so the port runs
	// the Block overflow policy — injection backpressures instead of
	// dropping when a queue fills (the test tuples all collide onto one
	// RSS queue under the symmetric key, so bursts WILL fill it).
	pool := nic.NewMempool(4096, 2048)
	port, err := nic.NewPort(nic.PortConfig{
		Queues: 4, QueueDepth: 1024, Pool: pool, Policy: nic.Block,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []Measurement
	sink := SinkFunc(func(m *Measurement) {
		mu.Lock()
		got = append(got, *m)
		mu.Unlock()
	})
	eng, err := NewEngine(EngineConfig{Port: port, Sink: sink, Burst: burst,
		Table: TableConfig{Capacity: 1024}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- eng.Run(ctx) }()

	const flows = 500
	for i := 0; i < flows; i++ {
		sp := uint16(1024 + i)
		src := netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}).String()
		t1 := int64(i) * 1_000_000
		t2 := t1 + 30_000_000
		t3 := t2 + 15_000_000
		inject(port, buildFrame(t, src, "192.0.2.1", sp, 443, pkt.TCPSyn, 100, 0), t1)
		inject(port, buildFrame(t, "192.0.2.1", src, 443, sp, pkt.TCPSyn|pkt.TCPAck, 500, 101), t2)
		inject(port, buildFrame(t, src, "192.0.2.1", sp, 443, pkt.TCPAck, 101, 501), t3)
	}
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == flows {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("timeout: %d/%d measurements (stats %+v, port %+v)", n, flows, eng.Stats(), port.Stats())
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	<-done
	for _, m := range got {
		if m.External != 30_000_000 || m.Internal != 15_000_000 {
			t.Fatalf("wrong latency: %+v", m)
		}
	}
	if st := eng.Stats().Table; st.Completed != flows {
		t.Fatalf("stats: %+v", st)
	}
	if st := port.Stats(); st.Imissed != 0 || st.Ipackets != 3*flows {
		t.Fatalf("lossless source dropped frames: %+v", st)
	}
	if pool.Available() != pool.Size() {
		t.Fatalf("buffer leak: %d/%d", pool.Available(), pool.Size())
	}
}

func TestEngineRunLeavesPoolIdle(t *testing.T) {
	// Cancelled with traffic still queued, Run drains every queue and
	// sends each burst home — the last, partial ones included — so that a
	// full pool means an idle pipeline and the arena can be released.
	pool := nic.NewMempool(512, 256)
	port, err := nic.NewPort(nic.PortConfig{Queues: 3, QueueDepth: 256, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(EngineConfig{Port: port, Sink: SinkFunc(func(*Measurement) {}), Burst: 32})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 300
	for i := 0; i < frames; i++ {
		src := netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}).String()
		if !inject(port, buildFrame(t, src, "192.0.2.1", uint16(2000+7*i), 443, pkt.TCPSyn, 1, 0), int64(i)) {
			t.Fatalf("inject %d refused: %+v", i, port.Stats())
		}
	}
	if pool.Available() != pool.Size()-frames {
		t.Fatalf("available = %d with %d frames queued", pool.Available(), frames)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := eng.Run(ctx); err != context.Canceled {
		t.Fatalf("Run = %v", err)
	}
	if st := eng.Stats().Table; st.Packets != frames {
		t.Fatalf("processed %d of %d queued frames", st.Packets, frames)
	}
	if pool.Available() != pool.Size() {
		t.Fatalf("available = %d of %d after Run returned", pool.Available(), pool.Size())
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineValidation(t *testing.T) {
	pool := nic.NewMempool(16, 512)
	port, _ := nic.NewPort(nic.PortConfig{Queues: 1, Pool: pool})
	if _, err := NewEngine(EngineConfig{Sink: SinkFunc(func(*Measurement) {})}); err == nil {
		t.Fatal("nil port accepted")
	}
	if _, err := NewEngine(EngineConfig{Port: port}); err == nil {
		t.Fatal("nil sink accepted")
	}
}

func TestEngineDoubleRunRejected(t *testing.T) {
	pool := nic.NewMempool(16, 512)
	port, _ := nic.NewPort(nic.PortConfig{Queues: 1, Pool: pool})
	eng, _ := NewEngine(EngineConfig{Port: port, Sink: SinkFunc(func(*Measurement) {})})
	ctx, cancel := context.WithCancel(context.Background())
	go eng.Run(ctx)
	time.Sleep(10 * time.Millisecond)
	if err := eng.Run(ctx); err == nil || err == context.Canceled {
		t.Fatal("second Run accepted")
	}
	cancel()
}

func TestTableIntegrityUnderRandomInterleavings(t *testing.T) {
	// Property: any interleaving of handshake steps from many flows keeps
	// the table consistent — completed + live + aborted accounting always
	// balances, and measured latencies are always the flow's own.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := NewHandshakeTable(TableConfig{Capacity: 256})
		type flowState struct {
			port  uint16
			step  int // 0: nothing, 1: SYN sent, 2: SYNACK sent
			t1    int64
			t2    int64
			reset bool
		}
		flows := make([]*flowState, 24)
		for i := range flows {
			flows[i] = &flowState{port: uint16(2000 + i)}
		}
		var m Measurement
		now := int64(0)
		completed := 0
		for op := 0; op < 800; op++ {
			now += int64(rng.Intn(1000)) + 1
			fl := flows[rng.Intn(len(flows))]
			switch fl.step {
			case 0:
				syn, h := mkSummary("10.1.1.1", "192.0.2.7", fl.port, 443, pkt.TCPSyn, uint32(fl.port), 0)
				if tbl.Process(syn, now, h, &m) {
					return false // SYN can never complete
				}
				fl.step, fl.t1, fl.reset = 1, now, false
			case 1:
				if rng.Intn(8) == 0 { // abort sometimes
					rst, h := mkSummary("10.1.1.1", "192.0.2.7", fl.port, 443, pkt.TCPRst, 0, 0)
					tbl.Process(rst, now, h, &m)
					fl.step = 0
					continue
				}
				sa, h := mkSummary("192.0.2.7", "10.1.1.1", 443, fl.port, pkt.TCPSyn|pkt.TCPAck, 7, uint32(fl.port)+1)
				if tbl.Process(sa, now, h, &m) {
					return false
				}
				fl.step, fl.t2 = 2, now
			case 2:
				ack, h := mkSummary("10.1.1.1", "192.0.2.7", fl.port, 443, pkt.TCPAck, uint32(fl.port)+1, 8)
				if !tbl.Process(ack, now, h, &m) {
					return false // valid ACK must complete
				}
				if m.External != fl.t2-fl.t1 || m.Internal != now-fl.t2 {
					return false
				}
				completed++
				fl.step = 0
			}
			if tbl.Len() < 0 || tbl.Len() > 256 {
				return false
			}
		}
		st := tbl.Stats()
		return st.Completed == uint64(completed) &&
			int(st.SYNs) >= completed &&
			st.Occupancy == uint64(tbl.Len())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineWithTSSink(t *testing.T) {
	// The engine runs the TS tracker beside the handshake table when a
	// TSSink is configured.
	pool := nic.NewMempool(256, 2048)
	port, err := nic.NewPort(nic.PortConfig{Queues: 2, QueueDepth: 128, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var samples []TSSample
	eng, err := NewEngine(EngineConfig{
		Port: port,
		Sink: SinkFunc(func(*Measurement) {}),
		TSSink: TSSinkFunc(func(s *TSSample) {
			mu.Lock()
			samples = append(samples, *s)
			mu.Unlock()
		}),
		Table:   TableConfig{Capacity: 128},
		TSTable: TSConfig{Capacity: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- eng.Run(ctx) }()

	// One data packet + its echo, with timestamp options.
	var opt [pkt.TimestampOptionLen]byte
	buildTS := func(src, dst string, sp, dp uint16, tsval, tsecr uint32) []byte {
		spec := &pkt.TCPFrameSpec{
			SrcMAC: pkt.MAC{1}, DstMAC: pkt.MAC{2},
			Src: netip.MustParseAddr(src), Dst: netip.MustParseAddr(dst),
			SrcPort: sp, DstPort: dp, Flags: pkt.TCPAck, Seq: 1, Ack: 1,
			Options: pkt.PutTimestampOption(opt[:], tsval, tsecr),
		}
		buf := make([]byte, 128)
		n, err := pkt.BuildTCPFrame(buf, spec)
		if err != nil {
			t.Fatal(err)
		}
		return buf[:n]
	}
	inject(port, buildTS("10.0.0.1", "192.0.2.1", 5000, 443, 100, 0), 1000)
	inject(port, buildTS("192.0.2.1", "10.0.0.1", 443, 5000, 900, 100), 46000)

	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		n := len(samples)
		mu.Unlock()
		if n >= 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("no TS sample")
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	<-done
	if samples[0].RTT != 45000 {
		t.Fatalf("RTT = %d", samples[0].RTT)
	}
}

func BenchmarkProcessHandshake(b *testing.B) {
	tbl := NewHandshakeTable(TableConfig{Capacity: 1 << 16})
	var m Measurement
	syn, h := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPSyn, 100, 0)
	synack, _ := mkSummary("192.0.2.1", "10.0.0.1", 443, 40000, pkt.TCPSyn|pkt.TCPAck, 900, 101)
	ack, _ := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPAck, 101, 901)
	b.ReportAllocs()
	ts := int64(0)
	for i := 0; i < b.N; i++ {
		ts += 3
		tbl.Process(syn, ts, h, &m)
		tbl.Process(synack, ts+1, h, &m)
		tbl.Process(ack, ts+2, h, &m)
	}
}

func BenchmarkProcessMidstream(b *testing.B) {
	// The common case on a real link: established-flow ACKs that miss the
	// table. This is the negative-lookup fast path.
	tbl := NewHandshakeTable(TableConfig{Capacity: 1 << 16})
	var m Measurement
	ack, h := mkSummary("10.0.0.1", "192.0.2.1", 40000, 443, pkt.TCPAck, 101, 901)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl.Process(ack, int64(i), h, &m)
	}
}
