// Package gen synthesizes the live traffic Ruru taps in production: TCP
// flows between world cities crossing a tap located on the Auckland–Los
// Angeles link, with realistic handshakes, data segments, retransmissions,
// background UDP noise, and injectable anomalies (the nightly firewall
// glitch, SYN floods, connection surges from the paper's §3).
//
// The generator is a discrete-event simulation on a virtual nanosecond
// clock. Per-flow path delays are drawn once (propagation from great-circle
// distance plus last-mile and jitter components) and then held fixed, so the
// exact measurement a correct tap must report is known for every flow:
// package gen is simultaneously the workload and the oracle: tests here
// and in anomaly, rss and core check the packet stream's measurements
// against the FlowTruth records, most through Replay.
//
// Determinism: the same Config (including Seed) produces the same packet
// stream, byte for byte.
package gen

import (
	"container/heap"
	"errors"
	"math"
	"math/rand"
	"net/netip"

	"ruru/internal/core"
	"ruru/internal/geo"
	"ruru/internal/pkt"
)

// PacketKind labels generated packets for debugging and tests.
type PacketKind uint8

// Packet kinds.
const (
	KindSYN PacketKind = iota
	KindSYNACK
	KindACK
	KindData
	KindFIN
	KindUDP
	KindMidstream
)

// Packet is one generated frame as seen at the tap.
type Packet struct {
	TS    int64  // tap capture timestamp, ns on the virtual clock
	Frame []byte // wire-format frame; references a buffer reused by Next
	Kind  PacketKind

	// Flow 4-tuple as transmitted (source of THIS packet first).
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
}

// FlowTruth is the oracle record for one generated flow.
type FlowTruth struct {
	Key                    core.FlowKey
	ClientCity, ServerCity int
	Start                  int64 // T0: client sends SYN (not yet at tap)

	// ExpectedInternal/External are exactly what a correct tap-based
	// engine must measure (first SYN, first SYN-ACK, first ACK at tap),
	// including any retransmission delays.
	ExpectedInternal, ExpectedExternal int64

	// PathInternal/External are the loss-free physical RTTs
	// (2× the one-way leg delays) — the "true" network latency.
	PathInternal, PathExternal int64

	SYNRetrans    int
	SYNACKRetrans int
	Anomalous     bool // an anomaly window inflated this flow's delay
	Flood         bool // SYN-flood flow: never completes
	Midstream     bool // no handshake observed (pre-existing flow)
	Completes     bool // a valid handshake appears in the stream

	// TCP-timestamp oracle (populated when Config.EmitTCPTimestamps):
	// TSDataEchoes is the number of server echoes of distinct client data
	// timestamps — the expected count of continuous external RTT samples —
	// and TSDataRTT their exact expected value (2×dTS). TSClean is false
	// when millisecond-clock collisions make per-sample prediction
	// unreliable for this flow (the tracker still behaves correctly;
	// only the oracle arithmetic is skipped).
	TSDataEchoes int
	TSDataRTT    int64
	TSClean      bool
}

// Window describes a periodic anomaly window: for flows whose SYN leaves the
// client within [Offset+k·Every, Offset+k·Every+Length), Extra nanoseconds
// are added to the external leg (the paper's nightly firewall update added
// ~4000 ms for flows started in a short window).
type Window struct {
	Every  int64 // period, ns (0 = single window at Offset)
	Offset int64 // start of the first window, ns from run start
	Length int64 // window length, ns
	Extra  int64 // added delay, ns
}

// contains reports whether t (ns since run start) is inside the window.
func (w Window) contains(t int64) bool {
	if w.Length <= 0 {
		return false
	}
	if w.Every <= 0 {
		return t >= w.Offset && t < w.Offset+w.Length
	}
	if t < w.Offset {
		return false
	}
	phase := (t - w.Offset) % w.Every
	return phase < w.Length
}

// FloodSpec injects a SYN flood: Rate SYNs/s from spoofed hosts in SrcCity
// toward one victim host in DstCity during [Start, Start+Duration).
type FloodSpec struct {
	Start, Duration  int64
	Rate             float64
	SrcCity, DstCity int
}

// SurgeSpec injects a connection-count surge: extra (completing) flows
// between a city pair during a window, for the paper's "unusual number of
// TCP connections between two locations" use case.
type SurgeSpec struct {
	Start, Duration  int64
	Rate             float64
	SrcCity, DstCity int
}

// Config parameterizes a Generator.
type Config struct {
	Seed  int64
	World *geo.World // required

	// FlowRate is the mean new-connection rate, flows/s (Poisson).
	FlowRate float64
	// Duration is the virtual capture length in ns. Flow arrivals stop at
	// Duration; in-flight flows run to completion.
	Duration int64

	// TapCity is the city index where the tap sits (default 0, Auckland).
	TapCity int
	// ClientCities optionally restricts client locations (default: all).
	ClientCities []int
	// ServerCities optionally restricts server locations (default: all).
	ServerCities []int

	// DataSegments is the mean number of post-handshake data segments per
	// flow (exponential; 0 disables data traffic).
	DataSegments float64
	// DataSpacing is the mean gap between data segments in ns
	// (exponential, default 5ms — a streaming transfer; set ≥ the path
	// RTT for request/response traffic).
	DataSpacing int64
	// UDPRate is background UDP noise in packets/s.
	UDPRate float64
	// MidstreamRate is the rate (flows/s) of pre-established flows that
	// emit ACK/data traffic with no observable handshake.
	MidstreamRate float64
	// IPv6Fraction of flows use IPv6 (default 0).
	IPv6Fraction float64

	// SYNLoss is the probability the SYN is lost tap-side→server and
	// retransmitted by the client after RTO. SYNACKLoss likewise for the
	// SYN-ACK on the client leg.
	SYNLoss, SYNACKLoss float64
	// RTO is the retransmission timeout (default 1s).
	RTO int64

	// JitterFrac scales per-flow lognormal jitter on each leg (default
	// 0.1). LastMileMean is the mean exponential last-mile delay added to
	// each leg one-way (default 2 ms).
	JitterFrac   float64
	LastMileMean int64

	// ServerDelay is the mean server SYN→SYN-ACK think time (exponential,
	// default 0: pure network latency, keeps the handshake oracle exact).
	ServerDelay int64

	// EmitTCPTimestamps attaches RFC 7323 timestamp options to every TCP
	// packet, with millisecond sender clocks and correct echo semantics —
	// the signal the continuous (pping-style) RTT tracker consumes.
	EmitTCPTimestamps bool

	// Anomaly injection.
	FirewallWindows []Window
	Floods          []FloodSpec
	Surges          []SurgeSpec
}

// Generator produces the packet stream. Not safe for concurrent use.
type Generator struct {
	cfg    Config
	rng    *rand.Rand
	evq    eventQueue
	buf    [2048]byte
	optBuf [pkt.TimestampOptionLen]byte
	seqP   uint16 // rolling client port
	host   uint32 // rolling client host counter

	nextArrival  int64
	arrivalsDone bool

	truths []FlowTruth

	floodNext []int64
	surgeNext []int64
	midNext   int64
	udpNext   int64

	macA, macB pkt.MAC
}

type event struct {
	ts   int64
	flow int32 // index into truths, -1 for noise
	kind PacketKind
	seq  uint32
	ack  uint32
	// endpoint info snapshot
	src, dst         netip.Addr
	srcPort, dstPort uint16
	payloadLen       uint16
	flags            uint8
	// TCP timestamp option (attached when hasTS).
	hasTS        bool
	tsval, tsecr uint32
}

type eventQueue []event

func (q eventQueue) Len() int           { return len(q) }
func (q eventQueue) Less(i, j int) bool { return q[i].ts < q[j].ts }
func (q eventQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)        { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// New validates cfg and returns a Generator.
func New(cfg Config) (*Generator, error) {
	if cfg.World == nil {
		return nil, errors.New("gen: Config.World is required")
	}
	if cfg.FlowRate < 0 || cfg.Duration < 0 {
		return nil, errors.New("gen: negative rate or duration")
	}
	if cfg.RTO <= 0 {
		cfg.RTO = 1e9
	}
	if cfg.JitterFrac == 0 {
		cfg.JitterFrac = 0.1
	}
	if cfg.LastMileMean == 0 {
		cfg.LastMileMean = 2e6
	}
	g := &Generator{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		macA: pkt.MAC{0x02, 0, 0, 0, 0, 0xaa},
		macB: pkt.MAC{0x02, 0, 0, 0, 0, 0xbb},
		seqP: 1024,
	}
	heap.Init(&g.evq)
	if cfg.FlowRate > 0 {
		g.nextArrival = g.expDelay(cfg.FlowRate)
	} else {
		g.arrivalsDone = true
	}
	g.floodNext = make([]int64, len(cfg.Floods))
	for i, f := range cfg.Floods {
		g.floodNext[i] = f.Start
	}
	g.surgeNext = make([]int64, len(cfg.Surges))
	for i, s := range cfg.Surges {
		g.surgeNext[i] = s.Start
	}
	if cfg.MidstreamRate > 0 {
		g.midNext = g.expDelay(cfg.MidstreamRate)
	} else {
		g.midNext = math.MaxInt64
	}
	if cfg.UDPRate > 0 {
		g.udpNext = g.expDelay(cfg.UDPRate)
	} else {
		g.udpNext = math.MaxInt64
	}
	return g, nil
}

// expDelay draws an exponential inter-arrival gap for the given rate/s.
func (g *Generator) expDelay(rate float64) int64 {
	d := g.rng.ExpFloat64() / rate * 1e9
	if d < 1 {
		d = 1
	}
	if d > 1e15 {
		d = 1e15
	}
	return int64(d)
}

// legDelay draws the fixed one-way delay between city a and city b:
// propagation at 200 km/ms × route factor 1.8, plus exponential last-mile,
// plus lognormal jitter. Minimum 200µs.
func (g *Generator) legDelay(a, b int) int64 {
	distKm := g.cfg.World.Distance(a, b)
	prop := distKm / 200.0 * 1.8 * 1e6 // ns
	lastMile := g.rng.ExpFloat64() * float64(g.cfg.LastMileMean)
	jitter := math.Exp(g.rng.NormFloat64() * g.cfg.JitterFrac) // ~1.0 ×
	d := int64((prop + lastMile) * jitter)
	if d < 200_000 {
		d = 200_000
	}
	return d
}

func (g *Generator) pickCity(list []int) int {
	if len(list) > 0 {
		return list[g.rng.Intn(len(list))] % len(g.cfg.World.Cities)
	}
	return g.rng.Intn(len(g.cfg.World.Cities))
}

func (g *Generator) nextClientAddr(city int, v6 bool) (netip.Addr, uint16) {
	g.host++
	g.seqP++
	if g.seqP < 1024 {
		g.seqP = 1024
	}
	slot := int(g.host) % 4
	if v6 {
		return g.cfg.World.Addr6(city, slot, uint64(g.host)), g.seqP
	}
	return g.cfg.World.Addr(city, slot, g.host), g.seqP
}

// scheduleFlow creates a full flow starting (client-side) at t0 and pushes
// its tap events. Returns the truth index.
func (g *Generator) scheduleFlow(t0 int64, clientCity, serverCity int, surge bool) int32 {
	cfg := &g.cfg
	v6 := g.rng.Float64() < cfg.IPv6Fraction
	clientAddr, clientPort := g.nextClientAddr(clientCity, v6)
	var serverAddr netip.Addr
	if v6 {
		serverAddr = cfg.World.Addr6(serverCity, g.rng.Intn(4), uint64(g.rng.Intn(1<<16)))
	} else {
		serverAddr = cfg.World.Addr(serverCity, g.rng.Intn(4), uint32(g.rng.Intn(1<<16)))
	}
	serverPort := uint16(443)
	if g.rng.Float64() < 0.3 {
		serverPort = 80
	}

	dCT := g.legDelay(clientCity, cfg.TapCity) // client ↔ tap one-way
	dTS := g.legDelay(cfg.TapCity, serverCity) // tap ↔ server one-way

	// Firewall anomaly: extra delay on the external (tap↔server) leg for
	// flows whose SYN leaves within a window. Applied to the SYN-ACK
	// response path (one-way), mimicking a middlebox holding the SYN.
	var extra int64
	anomalous := false
	for _, w := range cfg.FirewallWindows {
		if w.contains(t0) {
			extra += w.Extra
			anomalous = true
		}
	}

	serverThink := int64(0)
	if cfg.ServerDelay > 0 {
		serverThink = int64(g.rng.ExpFloat64() * float64(cfg.ServerDelay))
	}

	clientISN := g.rng.Uint32()
	serverISN := g.rng.Uint32()

	truth := FlowTruth{
		Key: core.FlowKey{Client: clientAddr, Server: serverAddr,
			ClientPort: clientPort, ServerPort: serverPort},
		ClientCity: clientCity, ServerCity: serverCity,
		Start:        t0,
		PathInternal: 2 * dCT,
		PathExternal: 2*dTS + serverThink + extra,
		Anomalous:    anomalous,
		Completes:    true,
	}
	idx := int32(len(g.truths))
	_ = surge

	// TCP timestamp clocks: millisecond sender-local time. Collision
	// tracking keeps the per-flow oracle honest (see FlowTruth.TSClean).
	useTS := cfg.EmitTCPTimestamps
	ms := func(t int64) uint32 { return uint32(t / 1e6) }
	var cliVals, srvVals []uint32
	truth.TSClean = useTS
	noteVal := func(vals *[]uint32, v uint32) {
		for _, x := range *vals {
			if x == v {
				truth.TSClean = false
				return
			}
		}
		*vals = append(*vals, v)
	}

	// --- SYN leg ---
	synAtTap := t0 + dCT
	firstSYNAtTap := synAtTap
	synArriveServer := synAtTap + dTS
	synTSvalAtServer := ms(t0) // tsval the server will echo
	if useTS {
		noteVal(&cliVals, ms(t0))
	}
	if g.rng.Float64() < cfg.SYNLoss {
		// Lost between tap and server; client retransmits after RTO.
		truth.SYNRetrans = 1
		retransTap := t0 + cfg.RTO + dCT
		synTSvalAtServer = ms(t0 + cfg.RTO)
		if useTS {
			noteVal(&cliVals, synTSvalAtServer)
		}
		g.push(event{ts: retransTap, flow: idx, kind: KindSYN, seq: clientISN,
			src: clientAddr, dst: serverAddr, srcPort: clientPort, dstPort: serverPort,
			flags: pkt.TCPSyn, hasTS: useTS, tsval: synTSvalAtServer})
		synArriveServer = retransTap + dTS
	}
	g.push(event{ts: firstSYNAtTap, flow: idx, kind: KindSYN, seq: clientISN,
		src: clientAddr, dst: serverAddr, srcPort: clientPort, dstPort: serverPort,
		flags: pkt.TCPSyn, hasTS: useTS, tsval: ms(t0)})

	// --- SYN-ACK leg ---
	synackSent := synArriveServer + serverThink + extra
	synackAtTap := synackSent + dTS
	firstSYNACKAtTap := synackAtTap
	synackArriveClient := synackAtTap + dCT
	saTSvalAtClient := ms(synackSent) // tsval the client will echo
	if useTS {
		noteVal(&srvVals, ms(synackSent))
	}
	if g.rng.Float64() < cfg.SYNACKLoss {
		// Lost between tap and client; server retransmits after RTO.
		truth.SYNACKRetrans = 1
		resent := synackSent + cfg.RTO
		saTSvalAtClient = ms(resent)
		if useTS {
			noteVal(&srvVals, saTSvalAtClient)
		}
		g.push(event{ts: resent + dTS, flow: idx, kind: KindSYNACK,
			seq: serverISN, ack: clientISN + 1,
			src: serverAddr, dst: clientAddr, srcPort: serverPort, dstPort: clientPort,
			flags: pkt.TCPSyn | pkt.TCPAck,
			hasTS: useTS, tsval: saTSvalAtClient, tsecr: synTSvalAtServer})
		synackArriveClient = resent + dTS + dCT
	}
	g.push(event{ts: firstSYNACKAtTap, flow: idx, kind: KindSYNACK,
		seq: serverISN, ack: clientISN + 1,
		src: serverAddr, dst: clientAddr, srcPort: serverPort, dstPort: clientPort,
		flags: pkt.TCPSyn | pkt.TCPAck,
		hasTS: useTS, tsval: ms(synackSent), tsecr: synTSvalAtServer})

	// --- ACK leg ---
	ackAtTap := synackArriveClient + dCT
	ackSend := synackArriveClient
	if useTS {
		noteVal(&cliVals, ms(ackSend))
	}
	g.push(event{ts: ackAtTap, flow: idx, kind: KindACK,
		seq: clientISN + 1, ack: serverISN + 1,
		src: clientAddr, dst: serverAddr, srcPort: clientPort, dstPort: serverPort,
		flags: pkt.TCPAck, hasTS: useTS, tsval: ms(ackSend), tsecr: saTSvalAtClient})

	truth.ExpectedExternal = firstSYNACKAtTap - firstSYNAtTap
	truth.ExpectedInternal = ackAtTap - firstSYNACKAtTap

	// --- Data + FIN ---
	if cfg.DataSegments > 0 {
		n := int(g.rng.ExpFloat64() * cfg.DataSegments)
		if n > 64 {
			n = 64
		}
		t := ackAtTap
		seq := clientISN + 1
		// Echo state: the newest server tsval that has reached the client
		// by a given send time, plus the one still in flight.
		curSrvVal := saTSvalAtClient
		var pendSrvVal uint32
		var pendSrvArrive int64 = -1
		spacing := cfg.DataSpacing
		if spacing <= 0 {
			spacing = 5e6
		}
		for i := 0; i < n; i++ {
			t += int64(g.rng.ExpFloat64() * float64(spacing))
			plen := uint16(100 + g.rng.Intn(1200))
			cliSend := t - dCT
			if pendSrvArrive >= 0 && cliSend >= pendSrvArrive {
				curSrvVal = pendSrvVal
				pendSrvArrive = -1
			}
			dataVal := ms(cliSend)
			if useTS {
				noteVal(&cliVals, dataVal)
				truth.TSDataEchoes++ // server echoes each data segment
			}
			g.push(event{ts: t, flow: idx, kind: KindData,
				seq: seq, ack: serverISN + 1,
				src: clientAddr, dst: serverAddr, srcPort: clientPort, dstPort: serverPort,
				payloadLen: plen, flags: pkt.TCPAck | pkt.TCPPsh,
				hasTS: useTS, tsval: dataVal, tsecr: curSrvVal})
			seq += uint32(plen)
			// Server ACK back through the tap.
			srvSend := t + dTS
			srvVal := ms(srvSend)
			if useTS {
				noteVal(&srvVals, srvVal)
				pendSrvVal = srvVal
				pendSrvArrive = srvSend + dTS + dCT
			}
			g.push(event{ts: t + dTS + dTS, flow: idx, kind: KindData,
				seq: serverISN + 1, ack: seq,
				src: serverAddr, dst: clientAddr, srcPort: serverPort, dstPort: clientPort,
				flags: pkt.TCPAck,
				hasTS: useTS, tsval: srvVal, tsecr: dataVal})
		}
		finSend := t + 1e6 - dCT
		if useTS {
			noteVal(&cliVals, ms(finSend))
			if pendSrvArrive >= 0 && finSend >= pendSrvArrive {
				curSrvVal = pendSrvVal
			}
		}
		g.push(event{ts: t + 1e6, flow: idx, kind: KindFIN,
			seq: seq, ack: serverISN + 1,
			src: clientAddr, dst: serverAddr, srcPort: clientPort, dstPort: serverPort,
			flags: pkt.TCPFin | pkt.TCPAck,
			hasTS: useTS, tsval: ms(finSend), tsecr: curSrvVal})
	}
	truth.TSDataRTT = 2 * dTS

	g.truths = append(g.truths, truth)
	return idx
}

// scheduleFloodSYN pushes one never-answered SYN from a spoofed source.
func (g *Generator) scheduleFloodSYN(t0 int64, f FloodSpec) {
	src := g.cfg.World.Addr(f.SrcCity, g.rng.Intn(4), g.rng.Uint32())
	dst := g.cfg.World.Addr(f.DstCity, 0, 80)
	sport := uint16(1024 + g.rng.Intn(60000))
	dCT := g.legDelay(f.SrcCity, g.cfg.TapCity)
	idx := int32(len(g.truths))
	g.truths = append(g.truths, FlowTruth{
		Key:        core.FlowKey{Client: src, Server: dst, ClientPort: sport, ServerPort: 80},
		ClientCity: f.SrcCity, ServerCity: f.DstCity,
		Start: t0, Flood: true,
	})
	g.push(event{ts: t0 + dCT, flow: idx, kind: KindSYN, seq: g.rng.Uint32(),
		src: src, dst: dst, srcPort: sport, dstPort: 80, flags: pkt.TCPSyn})
}

// scheduleMidstream pushes data traffic for a flow whose handshake predates
// the capture — the handshake engine can never measure it. With
// EmitTCPTimestamps, the segments carry timestamp options and the server
// acknowledges through the tap, so the continuous-RTT tracker CAN measure
// it; the truth records the oracle values like a normal flow's data phase.
func (g *Generator) scheduleMidstream(t0 int64) {
	cfg := &g.cfg
	c := g.pickCity(cfg.ClientCities)
	s := g.pickCity(cfg.ServerCities)
	src, sport := g.nextClientAddr(c, false)
	dst := cfg.World.Addr(s, 0, uint32(g.rng.Intn(1<<16)))
	dCT := g.legDelay(c, cfg.TapCity)
	dTS := g.legDelay(cfg.TapCity, s)
	idx := int32(len(g.truths))
	truth := FlowTruth{
		Key:        core.FlowKey{Client: src, Server: dst, ClientPort: sport, ServerPort: 443},
		ClientCity: c, ServerCity: s, Start: t0, Midstream: true,
		TSDataRTT: 2 * dTS, TSClean: cfg.EmitTCPTimestamps,
	}
	useTS := cfg.EmitTCPTimestamps
	ms := func(t int64) uint32 { return uint32(t / 1e6) }
	var cliVals, srvVals []uint32
	noteVal := func(vals *[]uint32, v uint32) {
		for _, x := range *vals {
			if x == v {
				truth.TSClean = false
				return
			}
		}
		*vals = append(*vals, v)
	}
	spacing := cfg.DataSpacing
	if spacing <= 0 {
		spacing = 10e6
	}
	seq := g.rng.Uint32()
	ack := g.rng.Uint32()
	t := t0
	for i := 0; i < 3; i++ {
		t += int64(g.rng.ExpFloat64() * float64(spacing))
		dataVal := ms(t - dCT)
		if useTS {
			noteVal(&cliVals, dataVal)
			truth.TSDataEchoes++
		}
		g.push(event{ts: t, flow: idx, kind: KindMidstream, seq: seq, ack: ack,
			src: src, dst: dst, srcPort: sport, dstPort: 443,
			payloadLen: 512, flags: pkt.TCPAck,
			hasTS: useTS, tsval: dataVal, tsecr: dataVal - 1000})
		seq += 512
		if useTS {
			srvVal := ms(t + dTS)
			noteVal(&srvVals, srvVal)
			g.push(event{ts: t + 2*dTS, flow: idx, kind: KindMidstream,
				seq: ack, ack: seq,
				src: dst, dst: src, srcPort: 443, dstPort: sport,
				flags: pkt.TCPAck, hasTS: true, tsval: srvVal, tsecr: dataVal})
		}
	}
	g.truths = append(g.truths, truth)
}

func (g *Generator) push(e event) { heap.Push(&g.evq, e) }

// advanceSchedulers materializes all scheduled arrivals (flows, floods,
// surges, noise) up to and including time limit.
func (g *Generator) advanceSchedulers(limit int64) {
	cfg := &g.cfg
	for !g.arrivalsDone && g.nextArrival <= limit {
		t0 := g.nextArrival
		if t0 >= cfg.Duration {
			g.arrivalsDone = true
			break
		}
		c := g.pickCity(cfg.ClientCities)
		s := g.pickCity(cfg.ServerCities)
		g.scheduleFlow(t0, c, s, false)
		g.nextArrival = t0 + g.expDelay(cfg.FlowRate)
	}
	for i := range cfg.Floods {
		f := cfg.Floods[i]
		for g.floodNext[i] <= limit && g.floodNext[i] < f.Start+f.Duration {
			g.scheduleFloodSYN(g.floodNext[i], f)
			g.floodNext[i] += g.expDelay(f.Rate)
		}
	}
	for i := range cfg.Surges {
		s := cfg.Surges[i]
		for g.surgeNext[i] <= limit && g.surgeNext[i] < s.Start+s.Duration {
			g.scheduleFlow(g.surgeNext[i], s.SrcCity, s.DstCity, true)
			g.surgeNext[i] += g.expDelay(s.Rate)
		}
	}
	for g.midNext <= limit && g.midNext < cfg.Duration {
		g.scheduleMidstream(g.midNext)
		g.midNext += g.expDelay(cfg.MidstreamRate)
	}
	for g.udpNext <= limit && g.udpNext < cfg.Duration {
		c := g.pickCity(nil)
		s := g.pickCity(nil)
		src := cfg.World.Addr(c, g.rng.Intn(4), g.rng.Uint32())
		dst := cfg.World.Addr(s, g.rng.Intn(4), g.rng.Uint32())
		g.push(event{ts: g.udpNext, flow: -1, kind: KindUDP,
			src: src, dst: dst,
			srcPort: uint16(1024 + g.rng.Intn(60000)), dstPort: 53,
			payloadLen: uint16(40 + g.rng.Intn(400))})
		g.udpNext += g.expDelay(cfg.UDPRate)
	}
}

var udpPayload = make([]byte, 1500)
var tcpPayload = make([]byte, 1500)

// Next produces the next packet in timestamp order into p, returning false
// when the stream is exhausted. p.Frame references an internal buffer valid
// until the following call.
//
// Ordering invariant: a scheduler arrival at time t only creates events with
// ts > t (every packet needs at least one leg delay to reach the tap), so
// once every scheduler's next arrival is later than the heap head, the head
// is globally next.
func (g *Generator) Next(p *Packet) bool {
	for {
		next := g.earliestSchedulerTime()
		if len(g.evq) == 0 {
			if next == math.MaxInt64 {
				return false
			}
			g.advanceSchedulers(next)
			continue
		}
		if next <= g.evq[0].ts {
			g.advanceSchedulers(g.evq[0].ts)
			continue
		}
		e := heap.Pop(&g.evq).(event)
		g.emit(&e, p)
		return true
	}
}

// earliestSchedulerTime returns the next pending scheduler arrival, or
// math.MaxInt64 when every scheduler is exhausted.
func (g *Generator) earliestSchedulerTime() int64 {
	t := int64(math.MaxInt64)
	if !g.arrivalsDone && g.nextArrival < t {
		t = g.nextArrival
	}
	for i, f := range g.cfg.Floods {
		if g.floodNext[i] < f.Start+f.Duration && g.floodNext[i] < t {
			t = g.floodNext[i]
		}
	}
	for i, s := range g.cfg.Surges {
		if g.surgeNext[i] < s.Start+s.Duration && g.surgeNext[i] < t {
			t = g.surgeNext[i]
		}
	}
	if g.midNext < g.cfg.Duration && g.midNext < t {
		t = g.midNext
	}
	if g.udpNext < g.cfg.Duration && g.udpNext < t {
		t = g.udpNext
	}
	return t
}

// emit serializes event e into p using the scratch buffer.
func (g *Generator) emit(e *event, p *Packet) {
	p.TS = e.ts
	p.Kind = e.kind
	p.Src, p.Dst = e.src, e.dst
	p.SrcPort, p.DstPort = e.srcPort, e.dstPort
	if e.kind == KindUDP {
		n, err := pkt.BuildUDPFrame(g.buf[:], g.macA, g.macB,
			e.src, e.dst, e.srcPort, e.dstPort, udpPayload[:e.payloadLen])
		if err != nil {
			panic("gen: udp frame build failed: " + err.Error())
		}
		p.Frame = g.buf[:n]
		return
	}
	spec := pkt.TCPFrameSpec{
		SrcMAC: g.macA, DstMAC: g.macB,
		Src: e.src, Dst: e.dst,
		SrcPort: e.srcPort, DstPort: e.dstPort,
		Seq: e.seq, Ack: e.ack, Flags: e.flags, Window: 65535,
	}
	if e.hasTS {
		spec.Options = pkt.PutTimestampOption(g.optBuf[:], e.tsval, e.tsecr)
	}
	if e.payloadLen > 0 {
		spec.Payload = tcpPayload[:e.payloadLen]
	}
	n, err := pkt.BuildTCPFrame(g.buf[:], &spec)
	if err != nil {
		panic("gen: tcp frame build failed: " + err.Error())
	}
	p.Frame = g.buf[:n]
}

// Truths returns the oracle records for all flows scheduled so far. Only
// complete after the stream is exhausted.
func (g *Generator) Truths() []FlowTruth { return g.truths }
