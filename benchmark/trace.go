package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"ruru/internal/gen"
	"ruru/internal/geo"
	"ruru/internal/nic"
)

// burst is the injection and polling burst size everywhere in the benchmark,
// the cmd/ruru -burst default.
const burst = 64

// arenaChunk is the allocation unit of a trace's frame storage. Chunks keep
// rendering from doubling a hundred-megabyte slice: the garbage would sit in
// peak_rss_mb and drown the pipeline's own memory.
const arenaChunk = 4 << 20

// tracePkt is one pre-rendered frame with what lap re-keying needs: where
// its L4 ports sit and what they were at lap 0.
type tracePkt struct {
	ts           int64
	frame        []byte
	l4           uint16 // offset of the L4 source port in the frame
	sport, dport uint16
}

// trace is one workload's traffic, rendered to generator exhaustion before
// any clock starts, together with the generator's oracle for it.
type trace struct {
	pkts []tracePkt
	// span is one lap on the trace clock: every lap's timestamps are the
	// first lap's plus lap*span, so laps never overlap in time.
	span int64
	sha  string

	// Oracle, per lap.
	tcpPkts   uint64  // frames the engine's tables will examine
	completes uint64  // handshakes a correct engine must measure
	sumMs     float64 // Σ (ExpectedInternal+ExpectedExternal) of those, in ms
	tsEchoes  uint64  // Σ TSDataEchoes over TSClean flows
}

// renderTrace runs the generator dry and keeps every frame.
func renderTrace(cfg gen.Config) (*trace, error) {
	g, err := gen.New(cfg)
	if err != nil {
		return nil, err
	}
	t := &trace{}
	h := sha256.New()
	var (
		p     gen.Packet
		tsLE  [8]byte
		chunk []byte
	)
	for g.Next(&p) {
		l4, err := l4Offset(p.Frame)
		if err != nil {
			return nil, err
		}
		if len(chunk)+len(p.Frame) > cap(chunk) {
			chunk = make([]byte, 0, arenaChunk)
		}
		at := len(chunk)
		chunk = append(chunk, p.Frame...)
		t.pkts = append(t.pkts, tracePkt{
			ts: p.TS, frame: chunk[at:len(chunk):len(chunk)],
			l4: uint16(l4), sport: p.SrcPort, dport: p.DstPort,
		})
		if p.Kind != gen.KindUDP {
			t.tcpPkts++
		}
		binary.LittleEndian.PutUint64(tsLE[:], uint64(p.TS))
		h.Write(tsLE[:])
		h.Write(p.Frame)
	}
	if len(t.pkts) == 0 {
		return nil, fmt.Errorf("generator produced no packets")
	}
	t.sha = hex.EncodeToString(h.Sum(nil))
	// One millisecond of air between laps keeps lap n+1's first frame
	// strictly after lap n's last.
	t.span = t.pkts[len(t.pkts)-1].ts + 1e6
	for _, tr := range g.Truths() {
		if tr.Completes {
			t.completes++
			t.sumMs += float64(tr.ExpectedInternal+tr.ExpectedExternal) / 1e6
		}
		if tr.TSClean {
			t.tsEchoes += uint64(tr.TSDataEchoes)
		}
	}
	return t, nil
}

// l4Offset returns where the transport header starts in an Ethernet frame
// from the generator (no VLAN tags, no IPv6 extension headers).
func l4Offset(frame []byte) (int, error) {
	if len(frame) < 14+20 {
		return 0, fmt.Errorf("short frame (%d bytes)", len(frame))
	}
	var off int
	switch et := binary.BigEndian.Uint16(frame[12:]); et {
	case 0x0800:
		off = 14 + int(frame[14]&0x0f)*4
	case 0x86dd:
		off = 14 + 40
	default:
		return 0, fmt.Errorf("unexpected ethertype %#04x", et)
	}
	if off+4 > len(frame) {
		return 0, fmt.Errorf("frame too short for L4 ports")
	}
	return off, nil
}

// fill appends packets [i, j) of the given lap to frames, re-keyed: the lap
// number is added to both L4 ports (checksums are not verified on the fast
// path), so every lap is a set of flows the pipeline has never seen, and the
// timestamp moves by lap spans past base.
func (t *trace) fill(frames []nic.Frame, i, j, lap int, base int64) []nic.Frame {
	shift := base + int64(lap)*t.span
	for ; i < j; i++ {
		p := &t.pkts[i]
		binary.BigEndian.PutUint16(p.frame[p.l4:], p.sport+uint16(lap))
		binary.BigEndian.PutUint16(p.frame[p.l4+2:], p.dport+uint16(lap))
		frames = append(frames, nic.Frame{Data: p.frame, TS: p.ts + shift})
	}
	return frames
}

// genConfig is the workload's generator configuration for one run.
func (w *workload) genConfig(seed int64, world *geo.World, duration int64) gen.Config {
	c := w.mix
	c.Seed = seed
	c.World = world
	c.Duration = duration
	return c
}
