package gen

import (
	"io"

	"ruru/internal/nic"
	"ruru/internal/pcap"
)

// Source returns the trace as a nic.Drive source: each call fills in the
// next packet's frame and timestamp, unchanged, and io.EOF follows the
// last packet. The frame aliases the generator's buffer; Drive copies it
// before the next call.
func (g *Generator) Source() func(*nic.Frame) error {
	var p Packet
	return func(f *nic.Frame) error {
		if !g.Next(&p) {
			return io.EOF
		}
		f.Data, f.TS = p.Frame, p.TS
		return nil
	}
}

// WritePcap streams the whole generated trace into a pcap file.
// Returns the number of packets written.
func (g *Generator) WritePcap(w io.Writer) (int, error) {
	pw, err := pcap.NewWriter(w, 0)
	if err != nil {
		return 0, err
	}
	var p Packet
	n := 0
	for g.Next(&p) {
		if err := pw.WritePacket(p.TS, p.Frame); err != nil {
			return n, err
		}
		n++
	}
	return n, pw.Flush()
}

// TracePacket is one pre-rendered packet with its own frame copy, used by
// benchmarks that need to replay the identical stream repeatedly without
// paying generation cost inside the timed region.
type TracePacket struct {
	TS               int64
	Frame            []byte
	Src, Dst         [16]byte // netip bytes to keep the struct flat
	SrcPort, DstPort uint16
	Is6              bool
	Kind             PacketKind
}

// Render materializes the full stream into memory.
func (g *Generator) Render() []TracePacket {
	var out []TracePacket
	var p Packet
	for g.Next(&p) {
		frame := make([]byte, len(p.Frame))
		copy(frame, p.Frame)
		tp := TracePacket{
			TS: p.TS, Frame: frame,
			SrcPort: p.SrcPort, DstPort: p.DstPort,
			Is6:  p.Src.Is6() && !p.Src.Is4In6(),
			Kind: p.Kind,
		}
		tp.Src = p.Src.As16()
		tp.Dst = p.Dst.As16()
		out = append(out, tp)
	}
	return out
}
