package gen

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"ruru/internal/core"
	"ruru/internal/geo"
	"ruru/internal/pcap"
	"ruru/internal/pkt"
)

func world(t testing.TB) *geo.World {
	t.Helper()
	w, err := geo.NewWorld(geo.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil world accepted")
	}
	if _, err := New(Config{World: world(t), FlowRate: -1}); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestStreamIsTimeOrdered(t *testing.T) {
	g, err := New(Config{
		Seed: 1, World: world(t), FlowRate: 500, Duration: 2e9,
		DataSegments: 2, UDPRate: 100, MidstreamRate: 20,
		SYNLoss: 0.05, SYNACKLoss: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	last := int64(-1)
	n := 0
	for g.Next(&p) {
		if p.TS < last {
			t.Fatalf("packet %d out of order: %d after %d", n, p.TS, last)
		}
		last = p.TS
		n++
	}
	if n < 2000 {
		t.Fatalf("only %d packets generated", n)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{
		Seed: 42, World: world(t), FlowRate: 200, Duration: 1e9,
		DataSegments: 1, UDPRate: 50, SYNLoss: 0.1,
	}
	render := func() ([]TracePacket, []FlowTruth) {
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := g.Render()
		return tr, g.Truths()
	}
	a, ta := render()
	b, tb := render()
	if len(a) != len(b) || len(ta) != len(tb) {
		t.Fatalf("stream lengths differ: %d/%d pkts, %d/%d truths", len(a), len(b), len(ta), len(tb))
	}
	for i := range a {
		if a[i].TS != b[i].TS || !bytes.Equal(a[i].Frame, b[i].Frame) {
			t.Fatalf("packet %d differs between runs", i)
		}
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("truth %d differs between runs", i)
		}
	}
}

func TestFramesAreParseable(t *testing.T) {
	g, err := New(Config{
		Seed: 3, World: world(t), FlowRate: 300, Duration: 1e9,
		DataSegments: 2, UDPRate: 100, MidstreamRate: 10, IPv6Fraction: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	var parser pkt.Parser
	parser.VerifyChecksums = true
	var p Packet
	var s pkt.Summary
	kinds := map[PacketKind]int{}
	for g.Next(&p) {
		if err := parser.Parse(p.Frame, &s); err != nil {
			t.Fatalf("unparseable %v frame: %v", p.Kind, err)
		}
		kinds[p.Kind]++
		switch p.Kind {
		case KindUDP:
			if s.Decoded&pkt.LayerUDP == 0 {
				t.Fatal("UDP frame did not decode as UDP")
			}
		default:
			if !s.IsTCP() {
				t.Fatalf("%v frame did not decode as TCP", p.Kind)
			}
			if s.Src() != p.Src || s.TCP.SrcPort != p.SrcPort {
				t.Fatal("frame tuple mismatch with Packet metadata")
			}
		}
	}
	for _, k := range []PacketKind{KindSYN, KindSYNACK, KindACK, KindData, KindUDP, KindMidstream} {
		if kinds[k] == 0 {
			t.Errorf("no packets of kind %d generated", k)
		}
	}
}

// TestGroundTruthMatchesEngineExactly is the paper's Figure 1 against the
// oracle: every completing flow's measured internal/external split must
// equal the generator's EXACTLY (it holds per-flow leg delays fixed), on
// one queue and on four (RSS must co-locate both directions of a flow).
func TestGroundTruthMatchesEngineExactly(t *testing.T) {
	for _, queues := range []int{1, 4} {
		t.Run(fmt.Sprintf("queues=%d", queues), func(t *testing.T) {
			g, err := New(Config{
				Seed: 7, World: world(t), FlowRate: 400, Duration: 3e9,
				DataSegments: 1, UDPRate: 200, MidstreamRate: 20,
				SYNLoss: 0.05, SYNACKLoss: 0.05, IPv6Fraction: 0.2,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := map[core.FlowKey]core.Measurement{}
			rep := Replay{
				Queues:    queues,
				Table:     core.TableConfig{Capacity: 1 << 18, Timeout: 300e9},
				OnMeasure: func(m *core.Measurement) { got[m.Flow] = *m },
			}
			rep.Run(g)
			truths := g.Truths()
			completing, retransmitted := 0, 0
			for i := range truths {
				tr := &truths[i]
				if !tr.Completes {
					continue
				}
				completing++
				if tr.SYNRetrans > 0 || tr.SYNACKRetrans > 0 {
					retransmitted++
				}
				m, ok := got[tr.Key]
				if !ok {
					t.Fatalf("flow %v never measured", tr.Key)
				}
				if m.External != tr.ExpectedExternal {
					t.Fatalf("flow %v: external %d != expected %d", tr.Key, m.External, tr.ExpectedExternal)
				}
				if m.Internal != tr.ExpectedInternal {
					t.Fatalf("flow %v: internal %d != expected %d", tr.Key, m.Internal, tr.ExpectedInternal)
				}
				if m.Total <= 0 || m.Total != tr.ExpectedInternal+tr.ExpectedExternal {
					t.Fatalf("flow %v: total %d != %d", tr.Key, m.Total, tr.ExpectedInternal+tr.ExpectedExternal)
				}
				if int(m.SYNRetrans) != tr.SYNRetrans {
					t.Fatalf("flow %v: retrans %d != %d", tr.Key, m.SYNRetrans, tr.SYNRetrans)
				}
			}
			if completing < 500 {
				t.Fatalf("only %d completing flows", completing)
			}
			// Loss injection must have produced retransmitting flows, or
			// the first-SYN/first-SYN-ACK rule went untested.
			if retransmitted == 0 {
				t.Fatal("no completing flow retransmitted")
			}
			// Flood and midstream flows must NOT appear in measurements.
			for i := range truths {
				tr := &truths[i]
				if tr.Completes {
					continue
				}
				if _, ok := got[tr.Key]; ok {
					t.Fatalf("non-completing flow %v was measured", tr.Key)
				}
			}
		})
	}
}

func TestLossFreeTruthEqualsPathRTT(t *testing.T) {
	// With no loss and no server delay, expected == path exactly.
	g, err := New(Config{Seed: 9, World: world(t), FlowRate: 200, Duration: 2e9})
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	for g.Next(&p) {
	}
	for _, tr := range g.Truths() {
		if !tr.Completes {
			continue
		}
		if tr.ExpectedExternal != tr.PathExternal || tr.ExpectedInternal != tr.PathInternal {
			t.Fatalf("loss-free flow: expected %d/%d != path %d/%d",
				tr.ExpectedExternal, tr.ExpectedInternal, tr.PathExternal, tr.PathInternal)
		}
		if tr.SYNRetrans != 0 || tr.SYNACKRetrans != 0 {
			t.Fatal("retransmission without loss")
		}
	}
}

func TestFirewallWindowInflatesExternal(t *testing.T) {
	// Flows starting inside the window get +4000ms external; others not.
	const extra = 4000e6
	g, err := New(Config{
		Seed: 11, World: world(t), FlowRate: 500, Duration: 3e9,
		FirewallWindows: []Window{{Every: 1e9, Offset: 0, Length: 100e6, Extra: extra}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	for g.Next(&p) {
	}
	anomalous, normal := 0, 0
	for _, tr := range g.Truths() {
		if tr.Anomalous {
			anomalous++
			if tr.ExpectedExternal < extra {
				t.Fatalf("anomalous flow external %d < %d", tr.ExpectedExternal, int64(extra))
			}
		} else {
			normal++
			if tr.ExpectedExternal > 1e9 {
				t.Fatalf("normal flow external suspiciously high: %d", tr.ExpectedExternal)
			}
		}
	}
	if anomalous == 0 || normal == 0 {
		t.Fatalf("anomalous=%d normal=%d: window not exercised", anomalous, normal)
	}
	// Window covers 10% of each second: anomalous share should be near
	// 10%, give or take Poisson noise.
	frac := float64(anomalous) / float64(anomalous+normal)
	if frac < 0.03 || frac > 0.25 {
		t.Fatalf("anomalous fraction %.3f implausible for a 10%% window", frac)
	}
}

func TestSYNFloodFlowsNeverComplete(t *testing.T) {
	cfg := Config{
		Seed: 13, World: world(t), FlowRate: 50, Duration: 2e9,
		Floods: []FloodSpec{{Start: 500e6, Duration: 1e9, Rate: 1000, SrcCity: 4, DstCity: 1}},
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	syns := 0
	for g.Next(&p) {
		if p.Kind == KindSYN {
			syns++
		}
	}
	floods, completing := 0, 0
	for _, tr := range g.Truths() {
		if tr.Completes {
			completing++
		}
		if tr.Flood {
			floods++
			if tr.Completes {
				t.Fatal("flood flow marked completing")
			}
		}
	}
	if floods < 500 {
		t.Fatalf("only %d flood flows for a 1000/s flood over 1s", floods)
	}
	if syns < floods {
		t.Fatalf("syns=%d < floods=%d", syns, floods)
	}

	// Through the handshake tables, every inserted SYN is completed,
	// aborted, expired or still tracked (ROADMAP item 14's identity); a SYN
	// refused at a full table is TableFull, never inserted.
	replay := func(capacity int) core.TableStats {
		t.Helper()
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := (&Replay{Table: core.TableConfig{Capacity: capacity}}).Run(g).Tables
		if s.SYNs != s.Completed+s.Aborted+s.Expired+s.Occupancy {
			t.Fatalf("capacity %d: SYNs %d != completed %d + aborted %d + expired %d + occupancy %d",
				capacity, s.SYNs, s.Completed, s.Aborted, s.Expired, s.Occupancy)
		}
		return s
	}
	if s := replay(0); s.Completed != uint64(completing) || s.Expired < uint64(floods) {
		t.Fatalf("completed %d, expired %d; want %d completed and at least the %d flood flows expired",
			s.Completed, s.Expired, completing, floods)
	}
	if s := replay(256); s.TableFull == 0 {
		t.Fatal("256 slots per queue refused no SYN: the flood did not fill the tables")
	}
}

// TestReplayIsDeterministic: one generator config through Replay twice
// gives the same OnMeasure and OnExpire call sequences. Each queue's flow
// hash seed is fixed, so the tables' slot order, and with it the order
// in which sweeps expire flows, repeats from run to run.
func TestReplayIsDeterministic(t *testing.T) {
	cfg := Config{
		Seed: 13, World: world(t), FlowRate: 200, Duration: 3e9,
		Floods: []FloodSpec{{Start: 500e6, Duration: 1e9, Rate: 2000, SrcCity: 4, DstCity: 1}},
	}
	run := func() (measured, expired []string) {
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep := Replay{
			Table: core.TableConfig{Timeout: 1e9, OnExpire: func(lastTS int64, awaiting bool) {
				expired = append(expired, fmt.Sprint(lastTS, awaiting))
			}},
			OnMeasure: func(m *core.Measurement) { measured = append(measured, fmt.Sprintf("%+v", *m)) },
		}
		rep.Run(g)
		return measured, expired
	}
	m1, e1 := run()
	m2, e2 := run()
	if len(m1) == 0 || len(e1) < 1000 {
		t.Fatalf("%d measurements, %d expiries: the config exercises too little", len(m1), len(e1))
	}
	if !slices.Equal(m1, m2) {
		t.Fatalf("OnMeasure sequences differ (%d and %d calls)", len(m1), len(m2))
	}
	if !slices.Equal(e1, e2) {
		t.Fatalf("OnExpire sequences differ (%d and %d calls)", len(e1), len(e2))
	}
}

func TestSurgeAddsFlowsBetweenPair(t *testing.T) {
	g, err := New(Config{
		Seed: 17, World: world(t), FlowRate: 50, Duration: 2e9,
		Surges: []SurgeSpec{{Start: 0, Duration: 1e9, Rate: 500, SrcCity: 2, DstCity: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	for g.Next(&p) {
	}
	pair := 0
	for _, tr := range g.Truths() {
		if tr.ClientCity == 2 && tr.ServerCity == 3 && tr.Completes {
			pair++
		}
	}
	if pair < 300 {
		t.Fatalf("only %d surge flows", pair)
	}
}

func TestWritePcapRoundTrip(t *testing.T) {
	g, err := New(Config{Seed: 19, World: world(t), FlowRate: 100, Duration: 1e9, UDPRate: 50})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := g.WritePcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var parser pkt.Parser
	var rp pcap.Packet
	var s pkt.Summary
	count := 0
	last := int64(-1)
	for {
		if err := r.ReadPacket(&rp); err != nil {
			break
		}
		if rp.Timestamp < last {
			t.Fatal("pcap out of order")
		}
		last = rp.Timestamp
		if err := parser.Parse(rp.Data, &s); err != nil {
			t.Fatalf("packet %d unparseable: %v", count, err)
		}
		count++
	}
	if count != n {
		t.Fatalf("wrote %d, read %d", n, count)
	}
}

func TestWindowContains(t *testing.T) {
	w := Window{Every: 100, Offset: 10, Length: 5}
	cases := []struct {
		t    int64
		want bool
	}{
		{0, false}, {9, false}, {10, true}, {14, true}, {15, false},
		{109, false}, {110, true}, {114, true}, {115, false},
	}
	for _, c := range cases {
		if w.contains(c.t) != c.want {
			t.Errorf("contains(%d) = %v", c.t, !c.want)
		}
	}
	one := Window{Offset: 50, Length: 10}
	if one.contains(45) || !one.contains(55) || one.contains(65) {
		t.Fatal("single window")
	}
	if (Window{Every: 10, Length: 0}).contains(0) {
		t.Fatal("zero-length window matched")
	}
}

func TestUniqueFlowKeys(t *testing.T) {
	// Harnesses index truths by FlowKey; generated keys must be unique.
	g, err := New(Config{Seed: 23, World: world(t), FlowRate: 2000, Duration: 2e9})
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	for g.Next(&p) {
	}
	seen := map[core.FlowKey]bool{}
	for _, tr := range g.Truths() {
		if seen[tr.Key] {
			t.Fatalf("duplicate flow key %v", tr.Key)
		}
		seen[tr.Key] = true
	}
}

func TestTCPTimestampEmission(t *testing.T) {
	g, err := New(Config{
		Seed: 29, World: world(t), FlowRate: 200, Duration: 2e9,
		DataSegments: 2, EmitTCPTimestamps: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var parser pkt.Parser
	var p Packet
	var s pkt.Summary
	withTS := 0
	tcpPkts := 0
	for g.Next(&p) {
		if err := parser.Parse(p.Frame, &s); err != nil || !s.IsTCP() {
			continue
		}
		tcpPkts++
		if _, _, ok := s.TCP.TimestampOption(); ok {
			withTS++
		}
	}
	if tcpPkts == 0 || withTS != tcpPkts {
		t.Fatalf("%d/%d TCP packets carry timestamps", withTS, tcpPkts)
	}
	// Echo semantics: for each flow the SYN-ACK's TSecr must equal the
	// SYN's TSval. Verify on a fresh identical run.
	g2, _ := New(Config{
		Seed: 29, World: world(t), FlowRate: 200, Duration: 2e9,
		DataSegments: 2, EmitTCPTimestamps: true,
	})
	synVals := map[core.FlowKey]uint32{}
	checked := 0
	for g2.Next(&p) {
		if err := parser.Parse(p.Frame, &s); err != nil || !s.IsTCP() {
			continue
		}
		tsval, tsecr, _ := s.TCP.TimestampOption()
		if s.TCP.IsSYN() {
			key := core.FlowKey{Client: s.Src(), Server: s.Dst(),
				ClientPort: s.TCP.SrcPort, ServerPort: s.TCP.DstPort}
			synVals[key] = tsval
		} else if s.TCP.IsSYNACK() {
			key := core.FlowKey{Client: s.Dst(), Server: s.Src(),
				ClientPort: s.TCP.DstPort, ServerPort: s.TCP.SrcPort}
			if v, ok := synVals[key]; ok {
				if tsecr != v {
					t.Fatalf("SYN-ACK TSecr %d != SYN TSval %d", tsecr, v)
				}
				checked++
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d handshakes checked", checked)
	}
	// Without the flag, no timestamps.
	g3, _ := New(Config{Seed: 29, World: world(t), FlowRate: 100, Duration: 1e9})
	for g3.Next(&p) {
		if err := parser.Parse(p.Frame, &s); err != nil || !s.IsTCP() {
			continue
		}
		if _, _, ok := s.TCP.TimestampOption(); ok {
			t.Fatal("timestamp emitted without EmitTCPTimestamps")
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	w := world(b)
	g, err := New(Config{Seed: 1, World: w, FlowRate: 10000, Duration: 1e15, DataSegments: 2, UDPRate: 1000})
	if err != nil {
		b.Fatal(err)
	}
	var p Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !g.Next(&p) {
			b.Fatal("stream exhausted")
		}
	}
}
