package pkt

import "net/netip"

// Layer identifies which headers a Parser successfully decoded.
type Layer uint8

// Layers reported in Summary.Decoded as a bitmask.
const (
	LayerEthernet Layer = 1 << iota
	LayerIPv4
	LayerIPv6
	LayerTCP
	LayerUDP
)

// Summary is the flattened result of parsing one frame on the fast path.
// It holds exactly the fields the Ruru measurement engine needs, decoded in
// one pass with zero allocation. Slices inside the embedded headers reference
// the frame buffer, so a Summary is only valid until the buffer is recycled.
type Summary struct {
	Eth  Ethernet
	IP4  IPv4
	IP6  IPv6
	TCP  TCP
	UDP  UDP
	IPv6 bool // which IP struct is valid

	Decoded Layer // bitmask of successfully decoded layers

	// Payload references the transport payload within the frame buffer.
	Payload []byte
}

// Src returns the network-layer source address.
func (s *Summary) Src() netip.Addr {
	if s.IPv6 {
		return s.IP6.Src
	}
	return s.IP4.Src
}

// Dst returns the network-layer destination address.
func (s *Summary) Dst() netip.Addr {
	if s.IPv6 {
		return s.IP6.Dst
	}
	return s.IP4.Dst
}

// Proto returns the transport protocol carried by the network layer.
func (s *Summary) Proto() IPProto {
	if s.IPv6 {
		return s.IP6.Protocol
	}
	return s.IP4.Protocol
}

// IsTCP reports whether a TCP header was decoded.
func (s *Summary) IsTCP() bool { return s.Decoded&LayerTCP != 0 }

// Parser decodes Ethernet/IPv4/IPv6/TCP/UDP stacks into a caller-owned
// Summary without allocating. One Parser per receive queue; Parsers are not
// safe for concurrent use (they are cheap — embed one per worker).
type Parser struct {
	// VerifyChecksums enables IPv4 header checksum validation. Transport
	// checksums are not verified on the fast path (the tap sees segments
	// the end hosts will themselves validate), matching Ruru's DPDK app.
	VerifyChecksums bool

	// Stats counts parse outcomes since creation.
	Stats ParserStats
}

// ParserStats counts parse outcomes.
type ParserStats struct {
	Frames    uint64 // frames presented
	TCPOK     uint64 // frames parsed through a TCP header
	UDPOK     uint64 // frames parsed through a UDP header
	NonIP     uint64 // ARP and friends
	OtherIP   uint64 // IP but not TCP/UDP (ICMP, etc.)
	Fragments uint64 // IP fragments that hid the transport header
	Errors    uint64 // malformed/truncated frames
	BadCsum   uint64 // IPv4 header checksum failures (when enabled)
}

// Parse decodes data into s. It returns nil when the frame was understood at
// least through the network layer; transport-layer absence (e.g. ICMP or a
// fragment) is not an error — check s.Decoded. Errors indicate a frame the
// pipeline should drop.
//
// Parse is on the per-frame hot path and must not allocate (the Summary is
// caller-owned scratch; sub-decoders return sentinel errors).
//
//ruru:noalloc
func (p *Parser) Parse(data []byte, s *Summary) error {
	p.Stats.Frames++
	s.Decoded = 0
	s.Payload = nil

	n, err := s.Eth.Decode(data)
	if err != nil {
		p.Stats.Errors++
		return err
	}
	s.Decoded |= LayerEthernet
	rest := data[n:]

	var (
		proto     IPProto
		transport []byte
	)
	switch s.Eth.Type {
	case EtherTypeIPv4:
		hn, err := s.IP4.Decode(rest)
		if err != nil {
			p.Stats.Errors++
			return err
		}
		if p.VerifyChecksums && !s.IP4.VerifyChecksum(rest) {
			p.Stats.BadCsum++
			return ErrBadChecksum
		}
		s.Decoded |= LayerIPv4
		s.IPv6 = false
		if s.IP4.IsFragment() && s.IP4.FragOffset != 0 {
			// Transport header lives in the first fragment only.
			p.Stats.Fragments++
			return nil
		}
		proto = s.IP4.Protocol
		end := hn + s.IP4.PayloadLen
		if end > len(rest) {
			end = len(rest)
		}
		transport = rest[hn:end]
	case EtherTypeIPv6:
		hn, err := s.IP6.Decode(rest)
		if err != nil {
			p.Stats.Errors++
			return err
		}
		s.Decoded |= LayerIPv6
		s.IPv6 = true
		if s.IP6.Fragmented {
			p.Stats.Fragments++
			return nil
		}
		proto = s.IP6.Protocol
		transport = rest[hn:]
	default:
		p.Stats.NonIP++
		return nil
	}

	switch proto {
	case IPProtoTCP:
		tn, err := s.TCP.Decode(transport)
		if err != nil {
			p.Stats.Errors++
			return err
		}
		s.Decoded |= LayerTCP
		s.Payload = transport[tn:]
		p.Stats.TCPOK++
	case IPProtoUDP:
		un, err := s.UDP.Decode(transport)
		if err != nil {
			p.Stats.Errors++
			return err
		}
		s.Decoded |= LayerUDP
		s.Payload = transport[un:]
		p.Stats.UDPOK++
	default:
		p.Stats.OtherIP++
	}
	return nil
}
