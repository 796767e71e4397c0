package core

import (
	"net/netip"

	"ruru/internal/pkt"
)

// SeqSample is one continuous RTT observation derived from data→ACK
// sequence matching. When host A's data segment ending at seq+len passes
// the tap at t1 and host B's cumulative ACK covering that edge passes at
// t2, then t2−t1 is the round trip between the tap and B — so, exactly
// like TSSample, the tap measures the *responder's* side of the path. This
// covers the flows the timestamp tracker cannot: middlebox-scrubbed and
// legacy paths that negotiate no TCP timestamp option.
//
// In OneDirection mode (asymmetric tap: only one side of the conversation
// is visible) the sample is instead a round-trip *response* latency in the
// sense of "Measuring Round-Trip Response Latencies Under Asymmetric
// Routing": visible-host data at t1, first visible packet whose ACK (or
// echoed TSecr) advances past the value recorded at t1 arriving at t2 —
// tap→peer→visible host→tap, peer think-time included. Such samples carry
// OneDir=true and reach storage tagged mode=onedir.
type SeqSample struct {
	// Responder is the host whose side of the path was measured (the
	// sender of the covering ACK; in OneDirection mode the invisible
	// peer); Peer is the other endpoint.
	Responder, Peer netip.Addr
	// ResponderPort and PeerPort complete the tuple.
	ResponderPort, PeerPort uint16
	// RTT is the measured round trip in nanoseconds; At the tap timestamp
	// of the packet that closed it.
	RTT int64
	At  int64
	// Queue is the observing RSS queue.
	Queue int
	// OneDir marks a one-direction-visible estimate (mode=onedir).
	OneDir bool
}

// LossKind classifies one loss/quality event.
type LossKind uint8

// Loss event classes. A re-sent sequence range whose gap to the prior
// transmission is below the RTO threshold is a fast retransmit (triggered
// by duplicate ACKs, roughly one RTT after the original); a larger gap
// means the sender's retransmission timeout fired. A pure ACK repeating
// the previous cumulative ACK is a duplicate ACK (the receiver signalling
// an out-of-order arrival).
const (
	LossRetrans LossKind = iota // fast retransmit
	LossRTO                     // timeout retransmit
	LossDupACK                  // duplicate cumulative ACK
)

// String returns the storage tag value for k.
func (k LossKind) String() string {
	switch k {
	case LossRetrans:
		return "retrans"
	case LossRTO:
		return "rto"
	default:
		return "dupack"
	}
}

// LossEvent is one classified loss/quality observation on a tracked flow.
// Src is the sender of the re-sent segment (or of the duplicate ACK).
type LossEvent struct {
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
	Kind             LossKind
	At               int64
	Queue            int
}

// SeqStats counts tracker outcomes. Samples includes OneDirSamples;
// Retrans+RTO+DupACK equals the loss events emitted.
type SeqStats struct {
	Packets       uint64 // TCP packets examined
	Inserted      uint64 // data edges registered
	Samples       uint64 // RTT samples produced (all modes)
	OneDirSamples uint64 // subset of Samples from OneDirection estimation
	Unmatched     uint64 // advancing ACKs that covered no pending edge
	Retrans       uint64 // fast-retransmit classifications
	RTO           uint64 // timeout-retransmit classifications
	DupACK        uint64 // duplicate cumulative ACKs
	Expired       uint64 // flow entries evicted idle
	TableFull     uint64 // flows not tracked: table at capacity
	Occupancy     uint64 // live flow entries (gauge)
}

func (s *SeqStats) add(o SeqStats) {
	s.Packets += o.Packets
	s.Inserted += o.Inserted
	s.Samples += o.Samples
	s.OneDirSamples += o.OneDirSamples
	s.Unmatched += o.Unmatched
	s.Retrans += o.Retrans
	s.RTO += o.RTO
	s.DupACK += o.DupACK
	s.Expired += o.Expired
	s.TableFull += o.TableFull
	s.Occupancy += o.Occupancy
}

// seqPendingSlots bounds outstanding data edges per direction per flow,
// the same discipline as tsPendingSlots: ACKs arrive one RTT after their
// data, older edges are overwritten and their (rare, late) ACKs counted
// Unmatched. Deep pipelines trade some sample loss for bounded memory.
const seqPendingSlots = 8

// seqEdge is one in-flight observation. In two-direction mode end is the
// segment's right edge (seq+len) an ACK must cover; in OneDirection mode
// end is the sender's cumulative ACK at send time and aux its TSecr, the
// values whose later advance closes the self-paired sample.
type seqEdge struct {
	end  uint32
	aux  uint32
	ts   int64
	used bool
}

// seqDir is one direction's state within a flow entry.
type seqDir struct {
	edges [seqPendingSlots]seqEdge
	pos   uint8
	// maxEnd is the highest right edge sent (valid when init): any data
	// segment at or below it is a retransmission.
	maxEnd uint32
	init   bool
	// lastAck is the direction's previous cumulative ACK (valid when
	// ackInit); repeating it in a pure ACK is a duplicate ACK.
	lastAck uint32
	ackInit bool
	// lastDataTS is the tap time of the direction's most recent data
	// segment, the fallback baseline for retransmit-gap classification
	// when the re-sent range's own edge has already been overwritten.
	lastDataTS int64
}

// seqEntry is the seq tracker's per-flow state, the val of a SeqTracker
// slot. The slot's key is canonically oriented like the timestamp
// tracker's: the endpoint with the lexicographically smaller (addr, port)
// is side A.
type seqEntry struct {
	a, b seqDir
}

// SeqConfig configures a SeqTracker.
type SeqConfig struct {
	// Capacity is the number of flow slots (rounded to a power of two,
	// default 1<<15). Timeout evicts idle flows (default 60s). Queue is
	// recorded in samples and loss events.
	Capacity int
	Timeout  int64
	Queue    int
	// OneDirection switches the tracker to asymmetric-tap estimation:
	// samples are self-paired within the visible direction (see
	// SeqSample) instead of data→ACK matched across directions. Loss
	// classification is unchanged (it only needs the sending side).
	OneDirection bool
	// DeferTS suppresses RTT samples (not loss events) for packets
	// carrying a TCP timestamp option. Set when a TSTracker runs beside
	// this tracker so a flow measured by timestamp echoes is not
	// double-counted; leave unset in OneDirection mode, where the echo
	// direction is invisible and the timestamp tracker yields nothing.
	DeferTS bool
	// RTOThreshold is the retransmit-gap boundary in nanoseconds: a
	// re-sent range closer than this to its prior transmission is a fast
	// retransmit, farther is an RTO (default 200ms).
	RTOThreshold int64
	// Admit, when non-nil, gates new-flow inserts against the sketch
	// tier's byte budget (same contract as TableConfig.Admit).
	Admit Admitter
}

// SeqTracker measures continuous RTT from data→ACK sequence matching and
// classifies retransmissions for one RSS queue. Like HandshakeTable and
// TSTracker it is single-writer and allocation-free on the packet path.
type SeqTracker struct {
	flowTable[seqEntry]
	queue   int
	oneDir  bool
	deferTS bool
	rtoGap  int64
	stats   SeqStats
}

// NewSeqTracker creates a tracker from cfg.
func NewSeqTracker(cfg SeqConfig) *SeqTracker {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1 << 15
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60e9
	}
	if cfg.RTOThreshold <= 0 {
		cfg.RTOThreshold = 200e6
	}
	return &SeqTracker{
		flowTable: newFlowTable[seqEntry](cfg.Capacity, cfg.Timeout, cfg.Admit),
		queue:     cfg.Queue,
		oneDir:    cfg.OneDirection,
		deferTS:   cfg.DeferTS,
		rtoGap:    cfg.RTOThreshold,
	}
}

// Stats returns a snapshot of the tracker counters.
func (t *SeqTracker) Stats() SeqStats {
	s := t.stats
	s.Expired = t.expired
	s.TableFull = t.full
	s.Occupancy = uint64(t.live)
	return s
}

// seqLE reports a ≤ b in 32-bit sequence space (RFC 1982 style).
func seqLE(a, b uint32) bool { return int32(b-a) >= 0 }

// seqLT reports a < b in 32-bit sequence space.
func seqLT(a, b uint32) bool { return int32(b-a) > 0 }

// Process examines one parsed TCP packet. When it closes an RTT sample the
// sample is stored in *out and the first result is true; when it is
// classified as a loss/quality event the event is stored in *loss and the
// second result is true (a packet can produce both: a retransmitted
// segment whose ACK also covers reverse-direction data). flowHash is a
// direction-independent flow hash; the engine passes FlowHash.
//
// SYN segments carry no stream data and are owned by the handshake table;
// together with the create-on-data-only rule below this guarantees a flow
// seen only as SYN, SYN|ACK or RST (the lone SYN|RST probe pattern) never
// occupies a tracker slot.
//
//ruru:noalloc
func (t *SeqTracker) Process(s *pkt.Summary, ts int64, flowHash uint32, out *SeqSample, loss *LossEvent) (sample, lossEv bool) {
	t.stats.Packets++
	t.maybeSweep(ts)

	tcp := &s.TCP
	if tcp.SYN() {
		return false, false
	}
	payload := len(s.Payload)
	key, fromA := canonicalKey(s.Src(), s.Dst(), tcp.SrcPort, tcp.DstPort)

	idx, found := t.find(flowHash, key)
	if !found {
		// Only a data segment creates state: a pure ACK or RST on an
		// unknown flow has nothing to match and would only burn a slot.
		if payload == 0 || tcp.RST() || t.insert(idx, flowHash, key, ts) == nil {
			return false, false
		}
	}
	sl := &t.slots[idx]
	sl.lastTS = ts
	e := &sl.val

	dir, rev := &e.a, &e.b
	if !fromA {
		dir, rev = &e.b, &e.a
	}

	// DeferTS: a packet carrying the timestamp option belongs to the
	// timestamp tracker's sample stream; suppress the seq RTT machinery
	// for it but keep loss classification (the TS tracker has none).
	_, tsecr, hasTS := tcp.TimestampOption()
	rttOn := !(t.deferTS && hasTS)

	// Loss classification first, so a retransmitted range never registers
	// (or keeps) an edge — retransmission ambiguity would otherwise turn
	// into a wrong sample (Karn's rule, applied at the tap).
	retrans := false
	if payload > 0 {
		end := tcp.Seq + uint32(payload)
		if dir.init && seqLE(end, dir.maxEnd) {
			retrans = true
			lossEv = t.classifyRetrans(dir, end, ts, s, tcp, loss)
		}
	}

	// Duplicate-ACK detection on pure ACKs (data and FIN/RST segments
	// legitimately repeat the cumulative ACK). Window updates also land
	// here — acceptable for a passive quality signal.
	if tcp.ACK() {
		if payload == 0 && !tcp.FIN() && !tcp.RST() && dir.ackInit && tcp.Ack == dir.lastAck {
			t.stats.DupACK++
			*loss = LossEvent{
				Src: s.Src(), Dst: s.Dst(),
				SrcPort: tcp.SrcPort, DstPort: tcp.DstPort,
				Kind: LossDupACK, At: ts, Queue: t.queue,
			}
			lossEv = true
		}
		dir.lastAck = tcp.Ack
		dir.ackInit = true
	}

	// RTT matching.
	if rttOn {
		if t.oneDir {
			if tcp.ACK() && t.matchOneDir(dir, tcp.Ack, tsecr, hasTS, ts, s, tcp, out) {
				sample = true
			}
		} else if tcp.ACK() && t.match(rev, tcp.Ack, ts, s, tcp, out) {
			sample = true
		}
	}

	if tcp.RST() {
		// Abort: no further ACKs will come; drop state immediately.
		t.remove(idx)
		return sample, lossEv
	}

	// Register this segment's edge for future matching. FINs consume a
	// sequence number but carry no data worth pairing; idle eviction
	// reclaims the entry after the close handshake.
	if payload > 0 {
		end := tcp.Seq + uint32(payload)
		if !dir.init || seqLT(dir.maxEnd, end) {
			dir.maxEnd = end
			dir.init = true
		}
		dir.lastDataTS = ts
		if rttOn && !retrans {
			edge := seqEdge{end: end, ts: ts, used: true}
			if t.oneDir {
				// Self-pairing: remember the values whose advance will
				// close this sample, not the segment's own right edge.
				edge.end = tcp.Ack
				edge.aux = 0
				if hasTS {
					edge.aux = tsecr
				}
			}
			dir.edges[dir.pos] = edge
			dir.pos = (dir.pos + 1) % seqPendingSlots
			t.stats.Inserted++
		}
	}
	return sample, lossEv
}

// classifyRetrans classifies a re-sent range by its gap to the prior
// transmission: below the RTO threshold is a fast retransmit, above it the
// sender's timeout fired. The range's own pending edge (exact right-edge
// match) gives the precise baseline and is invalidated — its eventual ACK
// must not become a sample; an overwritten edge falls back to the
// direction's last data time.
func (t *SeqTracker) classifyRetrans(dir *seqDir, end uint32, ts int64, s *pkt.Summary, tcp *pkt.TCP, loss *LossEvent) bool {
	prior := dir.lastDataTS
	if !t.oneDir {
		for i := range dir.edges {
			ed := &dir.edges[i]
			if ed.used && ed.end == end {
				prior = ed.ts
				ed.used = false
				break
			}
		}
	}
	kind := LossRetrans
	if prior == 0 || ts-prior >= t.rtoGap {
		kind = LossRTO
		t.stats.RTO++
	} else {
		t.stats.Retrans++
	}
	*loss = LossEvent{
		Src: s.Src(), Dst: s.Dst(),
		SrcPort: tcp.SrcPort, DstPort: tcp.DstPort,
		Kind: kind, At: ts, Queue: t.queue,
	}
	return true
}

// match looks for pending edges in the opposite direction covered by the
// cumulative ACK. A delayed ACK covers several segments at once; the
// newest covered edge is the one that triggered it, so it gives the
// tightest sample — one sample per ACK, all covered edges cleared.
func (t *SeqTracker) match(rev *seqDir, ack uint32, ts int64, s *pkt.Summary, tcp *pkt.TCP, out *SeqSample) bool {
	var newest *seqEdge
	for i := range rev.edges {
		ed := &rev.edges[i]
		if ed.used && seqLE(ed.end, ack) {
			if newest == nil || ed.ts > newest.ts {
				newest = ed
			}
			ed.used = false
		}
	}
	if newest == nil {
		// Only an advancing ACK that found nothing is a miss; the steady
		// stream of repeated ACKs legitimately covers no pending edge.
		if rev.init && seqLT(rev.maxEnd, ack) {
			t.stats.Unmatched++
		}
		return false
	}
	*out = SeqSample{
		Responder:     s.Src(),
		Peer:          s.Dst(),
		ResponderPort: tcp.SrcPort,
		PeerPort:      tcp.DstPort,
		RTT:           ts - newest.ts,
		At:            ts,
		Queue:         t.queue,
	}
	t.stats.Samples++
	return true
}

// matchOneDir closes self-paired samples within the visible direction: an
// edge recorded at send time is covered when the sender's cumulative ACK —
// or, on timestamp-bearing flows, its echoed TSecr — has advanced past the
// recorded value, meaning the invisible peer's response completed the
// loop. One sample per trigger packet, newest covered edge wins.
func (t *SeqTracker) matchOneDir(dir *seqDir, ack, tsecr uint32, hasTS bool, ts int64, s *pkt.Summary, tcp *pkt.TCP, out *SeqSample) bool {
	var newest *seqEdge
	for i := range dir.edges {
		ed := &dir.edges[i]
		if !ed.used {
			continue
		}
		advanced := seqLT(ed.end, ack)
		if !advanced && hasTS && ed.aux != 0 {
			advanced = seqLT(ed.aux, tsecr)
		}
		if advanced {
			if newest == nil || ed.ts > newest.ts {
				newest = ed
			}
			ed.used = false
		}
	}
	if newest == nil {
		return false
	}
	*out = SeqSample{
		Responder:     s.Dst(), // the invisible peer is the measured side
		Peer:          s.Src(),
		ResponderPort: tcp.DstPort,
		PeerPort:      tcp.SrcPort,
		RTT:           ts - newest.ts,
		At:            ts,
		Queue:         t.queue,
		OneDir:        true,
	}
	t.stats.Samples++
	t.stats.OneDirSamples++
	return true
}
