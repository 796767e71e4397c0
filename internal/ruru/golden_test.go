package ruru

// The golden pcap corpus: small synthetic captures checked in under
// testdata/golden/*.pcap, each paired with a hand-scripted per-flow oracle
// (*.oracle.json) — exact engine counters, exact per-flow latencies, exact
// loss-accounting ledger. TestGoldenCorpus replays each capture through
// the FULL pipeline (nic classify → engine → enricher → sharded sink →
// TSDB) and compares bit-exact, which pins the end-to-end measurement
// semantics: VLAN/QinQ decapsulation, IPv6, SYN|RST handling, retransmit
// timestamping ("measure from the first SYN"), midstream/orphan
// classification, and the completed == stored + losses ledger.
//
// The continuous-RTT scenarios (seq_rtt, retrans_rto, onedir,
// ts_seq_mixed) extend the same discipline to the PR-8 trackers: the
// oracle carries the tracker configuration plus every expected rtt_stream
// sample and tcp_loss event, and the test reads them back out of a TSDB
// snapshot — pinning sequence-matched sampling, Karn's rule, fast-retrans
// vs RTO classification, asymmetric-tap (onedir) self-pairing, and the
// no-double-counting contract when both trackers share a pipeline.
//
// The oracles are computed from the capture SCRIPTS (the timestamps the
// frames were built with), never from pipeline output — a regression in
// the pipeline cannot regenerate itself into the expectation. Regenerate
// both artifacts after an intentional format change with RURU_UPDATE=1
// (see docs/TESTING.md).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"ruru/internal/geo"
	"ruru/internal/nic"
	"ruru/internal/pcap"
	"ruru/internal/pkt"
	"ruru/internal/tsdb"
)

// goldenRTT is one expected continuous-RTT sample as stored in the TSDB's
// "rtt_stream" measurement: the measured side of the path (the timestamp
// echoer, the ACK sender, or — mode=onedir — the invisible peer) fills the
// echoer_city tag for every mode. RTTs are scripted in whole milliseconds
// so the ns→ms float conversion is exact and the comparison can be
// bit-exact.
type goldenRTT struct {
	Mode       string  `json:"mode"`
	EchoerCity string  `json:"echoer_city"`
	PeerCity   string  `json:"peer_city"`
	RTTMs      float64 `json:"rtt_ms"`
	Time       int64   `json:"time"`
}

// goldenLoss is one expected loss/quality event as stored in "tcp_loss".
type goldenLoss struct {
	SrcCity string `json:"src_city"`
	DstCity string `json:"dst_city"`
	Kind    string `json:"kind"`
	Time    int64  `json:"time"`
}

// goldenFlow is one expected completed measurement.
type goldenFlow struct {
	SrcCity    string `json:"src_city"`
	SrcCC      string `json:"src_cc"`
	DstCity    string `json:"dst_city"`
	DstCC      string `json:"dst_cc"`
	InternalNs int64  `json:"internal_ns"`
	ExternalNs int64  `json:"external_ns"`
	TotalNs    int64  `json:"total_ns"`
	Time       int64  `json:"time"`
	SYNRetrans uint8  `json:"syn_retrans"`
	IPv6       bool   `json:"ipv6"`
}

// goldenOracle is one capture's full expectation.
type goldenOracle struct {
	// Packets is the number of records in the capture file; Replayed how
	// many the replayer must deliver (fewer only for Truncated captures,
	// which must also surface pcap.ErrTruncated).
	Packets   int  `json:"packets"`
	Replayed  int  `json:"replayed"`
	Truncated bool `json:"truncated,omitempty"`
	// Deterministic engine counters (expiry-driven ones excluded — they
	// depend on amortized sweep timing, not on the capture).
	TCPPackets    uint64 `json:"tcp_packets"`
	SYNs          uint64 `json:"syns"`
	SYNRetrans    uint64 `json:"syn_retrans"`
	SYNACKs       uint64 `json:"synacks"`
	OrphanSYNACKs uint64 `json:"orphan_synacks"`
	Completed     uint64 `json:"completed"`
	Aborted       uint64 `json:"aborted"`
	MidstreamACKs uint64 `json:"midstream_acks"`
	InvalidACKs   uint64 `json:"invalid_acks"`
	// Flows are the expected measurements, sorted by (Time, SrcCity).
	Flows []goldenFlow `json:"flows"`

	// Continuous-RTT scenario knobs and expectations. TrackSeq/TrackTS/
	// OneDirection configure the replay pipeline (the oracle, not the
	// test code, decides how its capture must be measured); zero values
	// keep the original handshake-only replay. The sample and loss lists
	// are asserted bit-exact against a TSDB snapshot.
	TrackSeq     bool `json:"track_seq,omitempty"`
	TrackTS      bool `json:"track_ts,omitempty"`
	OneDirection bool `json:"one_direction,omitempty"`
	// Tracker counters, oracle-exact.
	TSSamples  uint64 `json:"ts_samples,omitempty"`
	SeqSamples uint64 `json:"seq_samples,omitempty"`
	Retrans    uint64 `json:"retrans,omitempty"`
	RTO        uint64 `json:"rto,omitempty"`
	DupACK     uint64 `json:"dupack,omitempty"`
	// RTTSamples sorted by (Time, EchoerCity, Mode); LossEvents by
	// (Time, SrcCity, Kind).
	RTTSamples []goldenRTT  `json:"rtt_samples,omitempty"`
	LossEvents []goldenLoss `json:"loss_events,omitempty"`
}

type goldenCapture struct {
	name   string
	pcap   []byte
	oracle goldenOracle
}

// capB scripts one capture: frames into an in-memory pcap, expectations
// into the oracle, both from the same arguments.
type capB struct {
	tb    testing.TB
	world *geo.World
	buf   bytes.Buffer
	pw    *pcap.Writer
	o     goldenOracle
}

func newCapB(tb testing.TB, w *geo.World) *capB {
	b := &capB{tb: tb, world: w}
	pw, err := pcap.NewWriter(&b.buf, 0)
	if err != nil {
		tb.Fatal(err)
	}
	b.pw = pw
	return b
}

// tcp builds one TCP frame (optionally QinQ-encapsulated) and records it.
func (b *capB) tcp(ts int64, qinq bool, spec pkt.TCPFrameSpec) {
	spec.SrcMAC, spec.DstMAC = pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}
	buf := make([]byte, pkt.TCPFrameLen(&spec)+pkt.VLANTagLen)
	n, err := pkt.BuildTCPFrame(buf, &spec)
	if err != nil {
		b.tb.Fatal(err)
	}
	frame := buf[:n]
	if qinq {
		// Splice an outer 802.1ad tag ahead of the inner 802.1Q one the
		// builder emitted: [MACs][0x88a8 outer][0x8100 inner][payload].
		q := make([]byte, 0, n+pkt.VLANTagLen)
		q = append(q, frame[:12]...)
		q = append(q, 0x88, 0xa8, 0x00, 200)
		q = append(q, frame[12:]...)
		frame = q
	}
	if err := b.pw.WritePacket(ts, frame); err != nil {
		b.tb.Fatal(err)
	}
	b.o.Packets++
	b.o.TCPPackets++
}

// udp writes one UDP background frame (parsed, ignored by the engine).
func (b *capB) udp(ts int64, src, dst int) {
	buf := make([]byte, 256)
	n, err := pkt.BuildUDPFrame(buf, pkt.MAC{2, 1}, pkt.MAC{2, 2},
		b.world.Addr(src, 1, 9), b.world.Addr(dst, 1, 9), 5353, 5353, []byte("mdns"))
	if err != nil {
		b.tb.Fatal(err)
	}
	if err := b.pw.WritePacket(ts, buf[:n]); err != nil {
		b.tb.Fatal(err)
	}
	b.o.Packets++
}

// hsOpts tweaks one scripted handshake.
type hsOpts struct {
	v6        bool
	vlan      uint16
	qinq      bool
	retransAt int64 // retransmit the SYN at this ts (0 = no retransmit)
	rstAt     int64 // abort with a server RST at this ts instead of completing
	dataAt    int64 // client data segment after completion (counts midstream)
	synOnly   bool  // leave the handshake dangling after the SYN
}

// handshake scripts one flow: SYN at t0, SYN-ACK after extNs, ACK after a
// further intNs — and the oracle rows those frames must produce.
func (b *capB) handshake(t0 int64, srcCity, dstCity int, host uint32, cport, sport uint16, extNs, intNs int64, o hsOpts) {
	var cAddr, sAddr = b.world.Addr(srcCity, 0, host), b.world.Addr(dstCity, 0, host+1000)
	if o.v6 {
		cAddr, sAddr = b.world.Addr6(srcCity, 0, uint64(host)), b.world.Addr6(dstCity, 0, uint64(host)+1000)
	}
	clientISN := 1000 + host
	serverISN := 900000 + host
	retrans := uint8(0)

	b.tcp(t0, o.qinq, pkt.TCPFrameSpec{VLAN: o.vlan, Src: cAddr, Dst: sAddr,
		SrcPort: cport, DstPort: sport, Seq: clientISN, Flags: pkt.TCPSyn, Window: 65535})
	b.o.SYNs++
	if o.synOnly {
		return
	}
	if o.retransAt > 0 {
		b.tcp(o.retransAt, o.qinq, pkt.TCPFrameSpec{VLAN: o.vlan, Src: cAddr, Dst: sAddr,
			SrcPort: cport, DstPort: sport, Seq: clientISN, Flags: pkt.TCPSyn, Window: 65535})
		b.o.SYNRetrans++
		retrans = 1
	}
	b.tcp(t0+extNs, o.qinq, pkt.TCPFrameSpec{VLAN: o.vlan, Src: sAddr, Dst: cAddr,
		SrcPort: sport, DstPort: cport, Seq: serverISN, Ack: clientISN + 1,
		Flags: pkt.TCPSyn | pkt.TCPAck, Window: 65535})
	b.o.SYNACKs++
	if o.rstAt > 0 {
		b.tcp(o.rstAt, o.qinq, pkt.TCPFrameSpec{VLAN: o.vlan, Src: sAddr, Dst: cAddr,
			SrcPort: sport, DstPort: cport, Seq: serverISN + 1, Flags: pkt.TCPRst})
		b.o.Aborted++
		return
	}
	ackTS := t0 + extNs + intNs
	b.tcp(ackTS, o.qinq, pkt.TCPFrameSpec{VLAN: o.vlan, Src: cAddr, Dst: sAddr,
		SrcPort: cport, DstPort: sport, Seq: clientISN + 1, Ack: serverISN + 1,
		Flags: pkt.TCPAck, Window: 65535})
	b.o.Completed++
	srcC, dstC := &b.world.Cities[srcCity], &b.world.Cities[dstCity]
	b.o.Flows = append(b.o.Flows, goldenFlow{
		SrcCity: srcC.Name, SrcCC: srcC.CountryCode,
		DstCity: dstC.Name, DstCC: dstC.CountryCode,
		InternalNs: intNs, ExternalNs: extNs, TotalNs: extNs + intNs,
		Time: ackTS, SYNRetrans: retrans, IPv6: o.v6,
	})
	if o.dataAt > 0 {
		b.tcp(o.dataAt, o.qinq, pkt.TCPFrameSpec{VLAN: o.vlan, Src: cAddr, Dst: sAddr,
			SrcPort: cport, DstPort: sport, Seq: clientISN + 1, Ack: serverISN + 1,
			Flags: pkt.TCPAck, Window: 65535, Payload: []byte("GET /")})
		b.o.MidstreamACKs++
	}
}

// seg writes one mid-stream segment of an established flow (the seq/ts
// trackers need no handshake) and accounts the handshake engine's view of
// it: every ACK-flagged, non-SYN, non-RST frame of an untracked flow is a
// midstream ACK. tsval/tsecr, when either is non-zero, attach a TCP
// timestamp option.
func (b *capB) seg(ts int64, src, dst netip.Addr, sp, dp uint16, flags uint8, seq, ack uint32, payload int, tsval, tsecr uint32) {
	spec := pkt.TCPFrameSpec{Src: src, Dst: dst, SrcPort: sp, DstPort: dp,
		Seq: seq, Ack: ack, Flags: flags, Window: 65535}
	if payload > 0 {
		spec.Payload = bytes.Repeat([]byte{0x5a}, payload)
	}
	if tsval != 0 || tsecr != 0 {
		var opt [pkt.TimestampOptionLen]byte
		spec.Options = append([]byte(nil), pkt.PutTimestampOption(opt[:], tsval, tsecr)...)
	}
	b.tcp(ts, false, spec)
	if flags&pkt.TCPRst == 0 && flags&pkt.TCPSyn == 0 && flags&pkt.TCPAck != 0 {
		b.o.MidstreamACKs++
	}
}

// expectRTT appends one hand-computed rtt_stream expectation.
func (b *capB) expectRTT(mode string, echoerCity, peerCity int, rttNs, at int64) {
	e, p := &b.world.Cities[echoerCity], &b.world.Cities[peerCity]
	b.o.RTTSamples = append(b.o.RTTSamples, goldenRTT{
		Mode: mode, EchoerCity: e.Name, PeerCity: p.Name,
		RTTMs: float64(rttNs) / 1e6, Time: at,
	})
	if mode == "ts" {
		b.o.TSSamples++
	} else {
		b.o.SeqSamples++
	}
}

// expectLoss appends one hand-computed tcp_loss expectation.
func (b *capB) expectLoss(kind string, srcCity, dstCity int, at int64) {
	s, d := &b.world.Cities[srcCity], &b.world.Cities[dstCity]
	b.o.LossEvents = append(b.o.LossEvents, goldenLoss{
		SrcCity: s.Name, DstCity: d.Name, Kind: kind, Time: at,
	})
	switch kind {
	case "retrans":
		b.o.Retrans++
	case "rto":
		b.o.RTO++
	default:
		b.o.DupACK++
	}
}

// orphanSYNACK scripts a SYN-ACK with no pending SYN (asymmetric route).
func (b *capB) orphanSYNACK(ts int64, srcCity, dstCity int, host uint32) {
	b.tcp(ts, false, pkt.TCPFrameSpec{
		Src: b.world.Addr(srcCity, 0, host), Dst: b.world.Addr(dstCity, 0, host+1),
		SrcPort: 443, DstPort: 55555, Seq: 1, Ack: 2,
		Flags: pkt.TCPSyn | pkt.TCPAck})
	b.o.OrphanSYNACKs++
}

func (b *capB) finish(name string) goldenCapture {
	if err := b.pw.Flush(); err != nil {
		b.tb.Fatal(err)
	}
	o := b.o
	o.Replayed = o.Packets
	sort.SliceStable(o.Flows, func(i, j int) bool {
		if o.Flows[i].Time != o.Flows[j].Time {
			return o.Flows[i].Time < o.Flows[j].Time
		}
		return o.Flows[i].SrcCity < o.Flows[j].SrcCity
	})
	sortGoldenRTT(o.RTTSamples)
	sortGoldenLoss(o.LossEvents)
	return goldenCapture{name: name, pcap: append([]byte(nil), b.buf.Bytes()...), oracle: o}
}

// sortGoldenRTT orders samples by (Time, EchoerCity, Mode) — the shared
// order of oracle and replay output.
func sortGoldenRTT(s []goldenRTT) {
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].Time != s[j].Time {
			return s[i].Time < s[j].Time
		}
		if s[i].EchoerCity != s[j].EchoerCity {
			return s[i].EchoerCity < s[j].EchoerCity
		}
		return s[i].Mode < s[j].Mode
	})
}

// sortGoldenLoss orders loss events by (Time, SrcCity, Kind).
func sortGoldenLoss(s []goldenLoss) {
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].Time != s[j].Time {
			return s[i].Time < s[j].Time
		}
		if s[i].SrcCity != s[j].SrcCity {
			return s[i].SrcCity < s[j].SrcCity
		}
		return s[i].Kind < s[j].Kind
	})
}

// goldenWorld is the deterministic geo mapping the captures are scripted
// against: no mislabels, so CityOf ground truth equals DB lookups.
func goldenWorld(tb testing.TB) *geo.World {
	w, err := geo.NewWorld(geo.WorldOptions{Seed: 1, MislabelFraction: 0})
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// goldenCaptures scripts the whole corpus. City indexes: 0 Auckland,
// 1 Los Angeles, 4 Sydney, 12 Tokyo.
func goldenCaptures(tb testing.TB) []goldenCapture {
	w := goldenWorld(tb)
	var caps []goldenCapture

	// Plain IPv4: three complete handshakes, one trailing data segment,
	// one orphan SYN-ACK, one UDP background frame.
	b := newCapB(tb, w)
	b.handshake(0, 0, 1, 10, 40001, 443, 140e6, 15e6, hsOpts{dataAt: 170e6})
	b.handshake(5e6, 4, 1, 20, 40002, 443, 40e6, 10e6, hsOpts{})
	b.handshake(10e6, 0, 12, 30, 40003, 8443, 180e6, 20e6, hsOpts{})
	b.orphanSYNACK(60e6, 1, 0, 70)
	b.udp(65e6, 0, 1)
	caps = append(caps, b.finish("ipv4_basic"))

	// IPv6: two complete handshakes.
	b = newCapB(tb, w)
	b.handshake(0, 0, 1, 40, 50001, 443, 130e6, 12e6, hsOpts{v6: true})
	b.handshake(8e6, 12, 4, 50, 50002, 443, 95e6, 18e6, hsOpts{v6: true})
	caps = append(caps, b.finish("ipv6"))

	// VLAN + QinQ: one 802.1Q flow, one double-tagged flow.
	b = newCapB(tb, w)
	b.handshake(0, 0, 1, 60, 41001, 443, 150e6, 16e6, hsOpts{vlan: 42})
	b.handshake(4e6, 4, 12, 61, 41002, 443, 110e6, 14e6, hsOpts{vlan: 100, qinq: true})
	caps = append(caps, b.finish("vlan_qinq"))

	// SYN|RST abort semantics: a handshake aborted by RST after the
	// SYN-ACK, a lone SYN|RST (must not insert), a dangling SYN, and one
	// complete flow to prove the table survived.
	b = newCapB(tb, w)
	b.handshake(0, 0, 1, 80, 42001, 443, 50e6, 10e6, hsOpts{rstAt: 65e6})
	b.tcp(5e6, false, pkt.TCPFrameSpec{ // SYN|RST: the PR-2 regression
		Src: w.Addr(1, 0, 81), Dst: w.Addr(0, 0, 82),
		SrcPort: 43001, DstPort: 443, Seq: 7, Flags: pkt.TCPSyn | pkt.TCPRst})
	b.handshake(10e6, 4, 1, 83, 42002, 443, 45e6, 9e6, hsOpts{synOnly: true})
	b.handshake(15e6, 0, 12, 84, 42003, 443, 175e6, 21e6, hsOpts{})
	caps = append(caps, b.finish("syn_rst"))

	// Retransmitted handshake: latency measured from the FIRST SYN.
	b = newCapB(tb, w)
	b.handshake(0, 0, 1, 90, 44001, 443, 90e6, 13e6, hsOpts{retransAt: 30e6})
	b.handshake(6e6, 4, 1, 91, 44002, 443, 60e6, 11e6, hsOpts{})
	caps = append(caps, b.finish("retrans"))

	// Truncated capture: the ipv4-shaped script cut mid-record (tcpdump
	// killed mid-write). Everything before the cut must still be measured
	// and the replayer must report pcap.ErrTruncated, not fail.
	b = newCapB(tb, w)
	b.handshake(0, 0, 1, 95, 45001, 443, 120e6, 17e6, hsOpts{})
	b.handshake(5e6, 4, 12, 96, 45002, 443, 85e6, 12e6, hsOpts{})
	full := b.finish("truncated")
	full.pcap = full.pcap[:len(full.pcap)-9] // tear the final record
	full.oracle.Truncated = true
	full.oracle.Replayed = full.oracle.Packets - 1
	// The torn final frame was the second handshake's ACK: unwind that
	// flow's completion (it sorts FIRST by time, so filter by identity).
	full.oracle.TCPPackets--
	full.oracle.Completed--
	kept := full.oracle.Flows[:0]
	for _, fl := range full.oracle.Flows {
		if fl.SrcCity != "Sydney" {
			kept = append(kept, fl)
		}
	}
	full.oracle.Flows = kept
	caps = append(caps, full)

	// --- Continuous-RTT scenarios (PR 8). Mid-stream flows only: the seq
	// tracker needs no handshake, and every ACK-flagged frame lands in the
	// engine's midstream counter (accounted by seg). All RTTs are whole
	// milliseconds so stored rtt_ms values compare exactly.

	// seq_rtt: two established flows WITHOUT the TCP timestamp option —
	// invisible to the timestamp tracker — measured from data→ACK
	// sequence matching alone. Covers both directions of one flow, a
	// cumulative ACK carried on a FIN, and a second concurrent flow.
	b = newCapB(tb, w)
	b.o.TrackSeq = true
	{
		c, s := w.Addr(0, 0, 200), w.Addr(1, 0, 1200) // Auckland ↔ Los Angeles
		b.seg(0, c, s, 40100, 443, pkt.TCPAck, 1000, 5000, 120, 0, 0)
		b.seg(30e6, s, c, 443, 40100, pkt.TCPAck, 5000, 1120, 0, 0, 0)
		b.expectRTT("seq", 1, 0, 30e6, 30e6) // ACK covers [1000,1120): LA's side
		b.seg(35e6, s, c, 443, 40100, pkt.TCPAck, 5000, 1120, 400, 0, 0)
		b.seg(47e6, c, s, 40100, 443, pkt.TCPAck, 1120, 5400, 0, 0, 0)
		b.expectRTT("seq", 0, 1, 12e6, 47e6) // ACK covers [5000,5400): Auckland's side
		b.seg(50e6, c, s, 40100, 443, pkt.TCPAck, 1120, 5400, 80, 0, 0)
		b.seg(75e6, s, c, 443, 40100, pkt.TCPFin|pkt.TCPAck, 5400, 1200, 0, 0, 0)
		b.expectRTT("seq", 1, 0, 25e6, 75e6) // FIN's ACK covers [1120,1200)

		c2, s2 := w.Addr(4, 0, 210), w.Addr(12, 0, 1210) // Sydney ↔ Tokyo
		b.seg(5e6, c2, s2, 40110, 443, pkt.TCPAck, 9000, 100, 50, 0, 0)
		b.seg(45e6, s2, c2, 443, 40110, pkt.TCPAck, 100, 9050, 0, 0, 0)
		b.expectRTT("seq", 12, 4, 40e6, 45e6)
	}
	caps = append(caps, b.finish("seq_rtt"))

	// retrans_rto: the loss-classification scenario. A healthy sample,
	// then a hole at 2100: three duplicate ACKs, a fast retransmit 35ms
	// after the original (< the 200ms RTO threshold), recovery — and a
	// second hole repaired only after 300ms (> threshold: RTO class),
	// whose ACK must NOT become a sample (Karn's rule, pinned here).
	b = newCapB(tb, w)
	b.o.TrackSeq = true
	{
		c, s := w.Addr(0, 0, 220), w.Addr(4, 0, 1220) // Auckland ↔ Sydney
		b.seg(0, c, s, 40200, 443, pkt.TCPAck, 2000, 7000, 100, 0, 0)
		b.seg(20e6, s, c, 443, 40200, pkt.TCPAck, 7000, 2100, 0, 0, 0)
		b.expectRTT("seq", 4, 0, 20e6, 20e6)
		b.seg(25e6, c, s, 40200, 443, pkt.TCPAck, 2100, 7000, 100, 0, 0)
		b.seg(30e6, c, s, 40200, 443, pkt.TCPAck, 2200, 7000, 100, 0, 0)
		// [2100,2200) is lost beyond the tap: Sydney repeats ack 2100.
		b.seg(45e6, s, c, 443, 40200, pkt.TCPAck, 7000, 2100, 0, 0, 0)
		b.expectLoss("dupack", 4, 0, 45e6)
		b.seg(50e6, s, c, 443, 40200, pkt.TCPAck, 7000, 2100, 0, 0, 0)
		b.expectLoss("dupack", 4, 0, 50e6)
		b.seg(55e6, s, c, 443, 40200, pkt.TCPAck, 7000, 2100, 0, 0, 0)
		b.expectLoss("dupack", 4, 0, 55e6)
		// Fast retransmit of [2100,2200): 35ms after the original.
		b.seg(60e6, c, s, 40200, 443, pkt.TCPAck, 2100, 7000, 100, 0, 0)
		b.expectLoss("retrans", 0, 4, 60e6)
		// Recovery ACK covers through 2300; the re-sent range is
		// disqualified, the sample comes from [2200,2300) sent at 30ms.
		b.seg(80e6, s, c, 443, 40200, pkt.TCPAck, 7000, 2300, 0, 0, 0)
		b.expectRTT("seq", 4, 0, 50e6, 80e6)
		// RTO-class hole: [2300,2400) re-sent 300ms later.
		b.seg(100e6, c, s, 40200, 443, pkt.TCPAck, 2300, 7000, 100, 0, 0)
		b.seg(400e6, c, s, 40200, 443, pkt.TCPAck, 2300, 7000, 100, 0, 0)
		b.expectLoss("rto", 0, 4, 400e6)
		// Karn: the ACK of the re-sent range yields NO sample.
		b.seg(430e6, s, c, 443, 40200, pkt.TCPAck, 7000, 2400, 0, 0, 0)
	}
	caps = append(caps, b.finish("retrans_rto"))

	// onedir: an asymmetric tap — only the client→server direction of
	// each flow is on the mirrored link. Samples are round-trip response
	// latencies self-paired within the visible direction: closed by the
	// sender's cumulative ACK advancing (first flow) or, where the ACK
	// number is useless, by its echoed TSecr advancing (second flow).
	b = newCapB(tb, w)
	b.o.TrackSeq = true
	b.o.OneDirection = true
	{
		c, s := w.Addr(1, 0, 230), w.Addr(12, 0, 1230) // LA → Tokyo visible
		b.seg(0, c, s, 40300, 443, pkt.TCPAck, 3000, 600, 200, 0, 0)
		b.seg(70e6, c, s, 40300, 443, pkt.TCPAck, 3200, 900, 100, 0, 0)
		b.expectRTT("onedir", 12, 1, 70e6, 70e6) // ack 600→900: Tokyo answered
		b.seg(150e6, c, s, 40300, 443, pkt.TCPAck, 3300, 1400, 0, 0, 0)
		b.expectRTT("onedir", 12, 1, 80e6, 150e6) // ack 900→1400

		c2, s2 := w.Addr(4, 0, 240), w.Addr(0, 0, 1240) // Sydney → Auckland visible
		b.seg(10e6, c2, s2, 40310, 443, pkt.TCPAck, 500, 100, 50, 1000, 50)
		b.seg(80e6, c2, s2, 40310, 443, pkt.TCPAck, 550, 100, 50, 1070, 77)
		b.expectRTT("onedir", 0, 4, 70e6, 80e6) // tsecr 50→77: Auckland answered
	}
	caps = append(caps, b.finish("onedir"))

	// ts_seq_mixed: both trackers on one pipeline. The first flow carries
	// timestamps — ALL its RTT samples must come from the timestamp
	// tracker (mode=ts, no seq double counting) while its retransmission
	// is still classified by the seq tracker. The second flow has no
	// timestamps and is sampled by sequence matching alone.
	b = newCapB(tb, w)
	b.o.TrackSeq = true
	b.o.TrackTS = true
	{
		c, s := w.Addr(0, 0, 250), w.Addr(1, 0, 1250) // Auckland ↔ LA, with TS
		b.seg(0, c, s, 40400, 443, pkt.TCPAck, 4000, 8000, 100, 100, 0)
		b.seg(40e6, s, c, 443, 40400, pkt.TCPAck, 8000, 4100, 0, 500, 100)
		b.expectRTT("ts", 1, 0, 40e6, 40e6) // echo of TSval 100 — and no seq sample
		b.seg(55e6, c, s, 40400, 443, pkt.TCPAck, 4100, 8000, 100, 155, 500)
		b.expectRTT("ts", 0, 1, 15e6, 55e6) // echo of TSval 500
		// Retransmission of [4100,4200): no TS sample (same TSval, first
		// kept), no seq sample (deferred), but the loss IS classified.
		b.seg(70e6, c, s, 40400, 443, pkt.TCPAck, 4100, 8000, 100, 155, 500)
		b.expectLoss("retrans", 0, 1, 70e6)
		b.seg(100e6, s, c, 443, 40400, pkt.TCPAck, 8000, 4200, 0, 540, 155)
		b.expectRTT("ts", 1, 0, 45e6, 100e6) // TSval 155 from its FIRST send at 55ms

		c2, s2 := w.Addr(4, 0, 260), w.Addr(12, 0, 1260) // Sydney ↔ Tokyo, no TS
		b.seg(5e6, c2, s2, 40410, 443, pkt.TCPAck, 6000, 300, 150, 0, 0)
		b.seg(65e6, s2, c2, 443, 40410, pkt.TCPAck, 300, 6150, 0, 0, 0)
		b.expectRTT("seq", 12, 4, 60e6, 65e6)
	}
	caps = append(caps, b.finish("ts_seq_mixed"))

	return caps
}

func goldenPath(name, ext string) string {
	return filepath.Join("testdata", "golden", name+ext)
}

// TestWriteGoldenCorpus regenerates testdata/golden from the scripts.
// Run with RURU_UPDATE=1; skipped otherwise.
func TestWriteGoldenCorpus(t *testing.T) {
	if os.Getenv("RURU_UPDATE") == "" {
		t.Skip("set RURU_UPDATE=1 to regenerate the golden corpus")
	}
	if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenCaptures(t) {
		if err := os.WriteFile(goldenPath(c.name, ".pcap"), c.pcap, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := json.MarshalIndent(c.oracle, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(c.name, ".oracle.json"), append(j, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGoldenCorpus replays every checked-in capture through the full
// pipeline and compares engine counters, per-flow measurements and the
// loss ledger bit-exact against the checked-in oracle.
func TestGoldenCorpus(t *testing.T) {
	w := goldenWorld(t)
	ents, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatalf("golden corpus missing (generate with RURU_UPDATE=1): %v", err)
	}
	ran := 0
	for _, ent := range ents {
		name, ok := cutSuffix(ent.Name(), ".pcap")
		if !ok {
			continue
		}
		ran++
		t.Run(name, func(t *testing.T) {
			var oracle goldenOracle
			oj, err := os.ReadFile(goldenPath(name, ".oracle.json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(oj, &oracle); err != nil {
				t.Fatal(err)
			}
			replayGolden(t, w, goldenPath(name, ".pcap"), &oracle, 0)
		})
	}
	if ran == 0 {
		t.Fatal("no golden captures found")
	}
}

func cutSuffix(s, suffix string) (string, bool) {
	if len(s) < len(suffix) || s[len(s)-len(suffix):] != suffix {
		return s, false
	}
	return s[:len(s)-len(suffix)], true
}

// replayGolden replays one capture through a full pipeline and compares
// bit-exact. flowBytes > 0 additionally enables the sketch tier with that
// cap — a generous cap must leave every measurement identical (admission
// admits everything) while the tier's ledger stays clean.
func replayGolden(t *testing.T, w *geo.World, path string, oracle *goldenOracle, flowBytes int64) {
	t.Helper()
	p, err := New(Config{
		GeoDB:  w.DB(),
		Queues: 2, Overflow: nic.Block, SinkWorkers: 2,
		TrackTimestamps: oracle.TrackTS,
		TrackSeq:        oracle.TrackSeq,
		OneDirection:    oracle.OneDirection,
		FlowTableBytes:  flowBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go p.Run(ctx)

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := pcap.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	n, err := nic.Drive(ctx, p.Port, 16, false, r.Source())
	if oracle.Truncated {
		if !errors.Is(err, pcap.ErrTruncated) {
			t.Fatalf("replay err = %v, want ErrTruncated", err)
		}
	} else if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if n != oracle.Replayed {
		t.Fatalf("replayed %d frames, want %d", n, oracle.Replayed)
	}

	// Drain: every completed measurement, every tracker sample and every
	// loss event must land in the TSDB (Block policy + tiny load = zero
	// loss anywhere downstream). The engine publishes tracker snapshots at
	// burst boundaries, so the predicate also waits for the per-queue Seq
	// counters to reach the oracle before asserting on them, and the sink
	// records a burst's arcs after its TSDB write, so it waits for those too.
	lossTotal := oracle.Retrans + oracle.RTO + oracle.DupACK
	expectedDB := oracle.Completed + oracle.TSSamples + oracle.SeqSamples + lossTotal
	deadline := time.Now().Add(10 * time.Second)
	var st Stats
	for {
		st = p.Stats()
		nArcs := len(p.RecentArcs(0))
		if st.Engine.Completed == oracle.Completed && st.DBPoints == expectedDB &&
			st.TSSamples == oracle.TSSamples && st.SeqSamples == oracle.SeqSamples &&
			st.LossPoints == lossTotal &&
			st.Seq.Retrans == oracle.Retrans && st.Seq.RTO == oracle.RTO &&
			st.Seq.DupACK == oracle.DupACK && nArcs == len(oracle.Flows) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain timeout: engine completed %d / db %d / ts %d / seq %d / loss %d / arcs %d, want %d / %d / %d / %d / %d / %d",
				st.Engine.Completed, st.DBPoints, st.TSSamples, st.SeqSamples, st.LossPoints, nArcs,
				oracle.Completed, expectedDB, oracle.TSSamples, oracle.SeqSamples, lossTotal, len(oracle.Flows))
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Engine counters, bit-exact.
	checks := []struct {
		name      string
		got, want uint64
	}{
		{"tcp packets", st.Engine.Packets, oracle.TCPPackets},
		{"syns", st.Engine.SYNs, oracle.SYNs},
		{"syn retrans", st.Engine.SYNRetrans, oracle.SYNRetrans},
		{"synacks", st.Engine.SYNACKs, oracle.SYNACKs},
		{"orphan synacks", st.Engine.OrphanSYNACKs, oracle.OrphanSYNACKs},
		{"completed", st.Engine.Completed, oracle.Completed},
		{"aborted", st.Engine.Aborted, oracle.Aborted},
		{"midstream acks", st.Engine.MidstreamACKs, oracle.MidstreamACKs},
		{"invalid acks", st.Engine.InvalidACKs, oracle.InvalidACKs},
		// Tracker counters: what the trackers emitted (tracker-level) and
		// what reached storage (pipeline-level) must both equal the oracle —
		// a write that vanished between the two is a ledger bug.
		{"ts samples (tracker)", st.TSRTT.Samples, oracle.TSSamples},
		{"ts samples (stored)", st.TSSamples, oracle.TSSamples},
		{"seq samples (tracker)", st.Seq.Samples, oracle.SeqSamples},
		{"seq samples (stored)", st.SeqSamples, oracle.SeqSamples},
		{"retrans", st.Seq.Retrans, oracle.Retrans},
		{"rto", st.Seq.RTO, oracle.RTO},
		{"dupack", st.Seq.DupACK, oracle.DupACK},
		{"loss points (stored)", st.LossPoints, lossTotal},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("engine %s = %d, want %d", c.name, c.got, c.want)
		}
	}

	// Sketch-tier ledger under a generous cap: every flow admitted, no
	// bytes leaked (handshake entries released on completion; tracker
	// entries may legitimately remain live), budget never exceeded.
	if flowBytes > 0 {
		if st.Sketch.SketchOnlyFlows != 0 {
			t.Errorf("generous cap refused %d flows", st.Sketch.SketchOnlyFlows)
		}
		if st.Sketch.LiveBytes+st.Sketch.SketchBytes > st.Sketch.BudgetBytes {
			t.Errorf("sketch budget exceeded: live %d + fixed %d > %d",
				st.Sketch.LiveBytes, st.Sketch.SketchBytes, st.Sketch.BudgetBytes)
		}
		if st.Sketch.BudgetBytes > flowBytes {
			t.Errorf("per-queue budgets %d exceed the configured cap %d",
				st.Sketch.BudgetBytes, flowBytes)
		}
	}

	// Loss-accounting ledger: nothing silently lost downstream.
	if st.Engine.Completed != st.Accounted() {
		t.Errorf("ledger violated: completed %d != accounted %d (stored %d, drops %d/%d/%d/%d)",
			st.Engine.Completed, st.Accounted(), st.DBPoints, st.SinkDrop, st.SinkDecodeErrors, st.DBDropped, st.DBWriteErrors)
	}

	// Per-flow measurements, bit-exact, in (Time, SrcCity) order.
	arcs := p.RecentArcs(0)
	sort.SliceStable(arcs, func(i, j int) bool {
		if arcs[i].Time != arcs[j].Time {
			return arcs[i].Time < arcs[j].Time
		}
		return arcs[i].Src.City < arcs[j].Src.City
	})
	if len(arcs) != len(oracle.Flows) {
		t.Fatalf("measured %d flows, want %d", len(arcs), len(oracle.Flows))
	}
	for i, want := range oracle.Flows {
		got := goldenFlow{
			SrcCity: arcs[i].Src.City, SrcCC: arcs[i].Src.CountryCode,
			DstCity: arcs[i].Dst.City, DstCC: arcs[i].Dst.CountryCode,
			InternalNs: arcs[i].InternalNs, ExternalNs: arcs[i].ExternalNs,
			TotalNs: arcs[i].TotalNs, Time: arcs[i].Time,
			SYNRetrans: arcs[i].SYNRetrans, IPv6: arcs[i].IPv6,
		}
		if got != want {
			t.Errorf("flow %d:\n got  %+v\n want %+v", i, got, want)
		}
	}

	// Continuous-RTT series, bit-exact, read back from the TSDB itself: a
	// snapshot is parsed line-by-line and every rtt_stream / tcp_loss point
	// must match the oracle in tags, value and timestamp. Whole-millisecond
	// scripted RTTs make the float comparison exact.
	var snap bytes.Buffer
	if _, err := p.DB.Snapshot(&snap); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	var gotRTT []goldenRTT
	var gotLoss []goldenLoss
	var pt tsdb.Point
	for _, line := range strings.Split(snap.String(), "\n") {
		if line == "" {
			continue
		}
		if err := tsdb.ParseLine(line, &pt); err != nil {
			t.Fatalf("snapshot line %q: %v", line, err)
		}
		switch pt.Name {
		case "rtt_stream":
			gotRTT = append(gotRTT, goldenRTT{
				Mode:       tagVal(&pt, "mode"),
				EchoerCity: tagVal(&pt, "echoer_city"),
				PeerCity:   tagVal(&pt, "peer_city"),
				RTTMs:      pt.Fields[0].Value,
				Time:       pt.Time,
			})
		case "tcp_loss":
			gotLoss = append(gotLoss, goldenLoss{
				SrcCity: tagVal(&pt, "src_city"),
				DstCity: tagVal(&pt, "dst_city"),
				Kind:    tagVal(&pt, "kind"),
				Time:    pt.Time,
			})
		}
	}
	sortGoldenRTT(gotRTT)
	sortGoldenLoss(gotLoss)
	if len(gotRTT) != len(oracle.RTTSamples) {
		t.Fatalf("stored %d rtt_stream points, want %d:\n got  %+v\n want %+v",
			len(gotRTT), len(oracle.RTTSamples), gotRTT, oracle.RTTSamples)
	}
	for i, want := range oracle.RTTSamples {
		if gotRTT[i] != want {
			t.Errorf("rtt sample %d:\n got  %+v\n want %+v", i, gotRTT[i], want)
		}
	}
	if len(gotLoss) != len(oracle.LossEvents) {
		t.Fatalf("stored %d tcp_loss points, want %d:\n got  %+v\n want %+v",
			len(gotLoss), len(oracle.LossEvents), gotLoss, oracle.LossEvents)
	}
	for i, want := range oracle.LossEvents {
		if gotLoss[i] != want {
			t.Errorf("loss event %d:\n got  %+v\n want %+v", i, gotLoss[i], want)
		}
	}
}

// tagVal extracts one tag by key from a parsed point.
func tagVal(p *tsdb.Point, key string) string {
	for _, tg := range p.Tags {
		if tg.Key == key {
			return tg.Value
		}
	}
	return ""
}
