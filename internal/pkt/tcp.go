package pkt

import "encoding/binary"

// TCP flag bits as they appear in the 13th/14th header bytes.
const (
	TCPFin uint8 = 1 << 0
	TCPSyn uint8 = 1 << 1
	TCPRst uint8 = 1 << 2
	TCPPsh uint8 = 1 << 3
	TCPAck uint8 = 1 << 4
	TCPUrg uint8 = 1 << 5
	TCPEce uint8 = 1 << 6
	TCPCwr uint8 = 1 << 7
)

// TCP option kinds the parser understands.
const (
	TCPOptEnd       = 0
	TCPOptNop       = 1
	TCPOptMSS       = 2
	TCPOptWScale    = 3
	TCPOptSAckOK    = 4
	TCPOptTimestamp = 8
)

// TCP is a decoded TCP header.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	DataOffset       uint8 // header length in 32-bit words
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16
	Options          []byte // references the frame buffer; nil if none
	HeaderLen        int
}

// Convenience flag accessors used pervasively by the handshake engine.

// SYN reports whether the SYN flag is set.
func (t *TCP) SYN() bool { return t.Flags&TCPSyn != 0 }

// ACK reports whether the ACK flag is set.
func (t *TCP) ACK() bool { return t.Flags&TCPAck != 0 }

// RST reports whether the RST flag is set.
func (t *TCP) RST() bool { return t.Flags&TCPRst != 0 }

// FIN reports whether the FIN flag is set.
func (t *TCP) FIN() bool { return t.Flags&TCPFin != 0 }

// IsSYN reports a pure SYN (connection request, first packet of a handshake).
func (t *TCP) IsSYN() bool { return t.Flags&(TCPSyn|TCPAck) == TCPSyn }

// IsSYNACK reports a SYN-ACK (second packet of a handshake).
func (t *TCP) IsSYNACK() bool { return t.Flags&(TCPSyn|TCPAck) == TCPSyn|TCPAck }

// Decode parses a TCP header from data, returning bytes consumed.
func (t *TCP) Decode(data []byte) (int, error) {
	if len(data) < TCPMinHeaderLen {
		return 0, ErrHeaderTooShort
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	t.DataOffset = data[12] >> 4
	hlen := int(t.DataOffset) * 4
	if hlen < TCPMinHeaderLen {
		return 0, ErrBadHeaderLen
	}
	if len(data) < hlen {
		return 0, ErrHeaderTooShort
	}
	t.Flags = data[13]
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.Checksum = binary.BigEndian.Uint16(data[16:18])
	t.Urgent = binary.BigEndian.Uint16(data[18:20])
	if hlen > TCPMinHeaderLen {
		t.Options = data[TCPMinHeaderLen:hlen]
	} else {
		t.Options = nil
	}
	t.HeaderLen = hlen
	return hlen, nil
}

// TimestampOption returns the TSval/TSecr pair from the TCP timestamp option
// and whether it was present.
func (t *TCP) TimestampOption() (tsval, tsecr uint32, ok bool) {
	opts := t.Options
	for len(opts) > 0 {
		switch opts[0] {
		case TCPOptEnd:
			return 0, 0, false
		case TCPOptNop:
			opts = opts[1:]
		default:
			if len(opts) < 2 || int(opts[1]) < 2 || int(opts[1]) > len(opts) {
				return 0, 0, false
			}
			if opts[0] == TCPOptTimestamp && opts[1] == 10 {
				return binary.BigEndian.Uint32(opts[2:6]), binary.BigEndian.Uint32(opts[6:10]), true
			}
			opts = opts[opts[1]:]
		}
	}
	return 0, 0, false
}

// Encode serializes the header into buf without a checksum (use
// TransportChecksum and PutChecksum afterwards, once the payload is in
// place). Options must be padded to a multiple of 4 bytes. Returns bytes
// written.
func (t *TCP) Encode(buf []byte) (int, error) {
	if len(t.Options)%4 != 0 {
		return 0, ErrBadHeaderLen
	}
	hlen := TCPMinHeaderLen + len(t.Options)
	if len(buf) < hlen {
		return 0, ErrFrameTooShort
	}
	binary.BigEndian.PutUint16(buf[0:], t.SrcPort)
	binary.BigEndian.PutUint16(buf[2:], t.DstPort)
	binary.BigEndian.PutUint32(buf[4:], t.Seq)
	binary.BigEndian.PutUint32(buf[8:], t.Ack)
	buf[12] = uint8(hlen/4) << 4
	buf[13] = t.Flags
	binary.BigEndian.PutUint16(buf[14:], t.Window)
	buf[16], buf[17] = 0, 0
	binary.BigEndian.PutUint16(buf[18:], t.Urgent)
	copy(buf[TCPMinHeaderLen:], t.Options)
	return hlen, nil
}

// EncodedLen returns the number of bytes Encode will write.
func (t *TCP) EncodedLen() int { return TCPMinHeaderLen + len(t.Options) }

// PutTCPChecksum stores a computed checksum into an encoded TCP header.
func PutTCPChecksum(segment []byte, cs uint16) {
	binary.BigEndian.PutUint16(segment[16:18], cs)
}

// TimestampOptionLen is the encoded size of PutTimestampOption's output
// (NOP, NOP, then the 10-byte timestamp option — the standard padding).
const TimestampOptionLen = 12

// PutTimestampOption writes the RFC 7323 timestamp option (padded with two
// NOPs to a 4-byte multiple) into buf and returns the 12-byte slice.
func PutTimestampOption(buf []byte, tsval, tsecr uint32) []byte {
	buf[0], buf[1] = TCPOptNop, TCPOptNop
	buf[2], buf[3] = TCPOptTimestamp, 10
	binary.BigEndian.PutUint32(buf[4:], tsval)
	binary.BigEndian.PutUint32(buf[8:], tsecr)
	return buf[:TimestampOptionLen]
}

// UDP is a decoded UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

// Decode parses a UDP header from data, returning bytes consumed.
func (u *UDP) Decode(data []byte) (int, error) {
	if len(data) < UDPHeaderLen {
		return 0, ErrHeaderTooShort
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.Length = binary.BigEndian.Uint16(data[4:6])
	u.Checksum = binary.BigEndian.Uint16(data[6:8])
	return UDPHeaderLen, nil
}

// Encode serializes the header into buf without a checksum. Length must be
// set by the caller. Returns bytes written.
func (u *UDP) Encode(buf []byte) (int, error) {
	if len(buf) < UDPHeaderLen {
		return 0, ErrFrameTooShort
	}
	binary.BigEndian.PutUint16(buf[0:], u.SrcPort)
	binary.BigEndian.PutUint16(buf[2:], u.DstPort)
	binary.BigEndian.PutUint16(buf[4:], u.Length)
	buf[6], buf[7] = 0, 0
	return UDPHeaderLen, nil
}
