package pkt

import (
	"encoding/binary"
	"fmt"
)

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// String formats the address in the canonical colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Ethernet is a decoded Ethernet II header, including up to two stacked
// 802.1Q/802.1ad VLAN tags.
type Ethernet struct {
	Dst, Src  MAC
	Type      EtherType // EtherType after any VLAN tags
	VLANs     [2]uint16 // VLAN IDs, outermost first
	VLANCount int       // number of valid entries in VLANs
	HeaderLen int       // total bytes consumed incl. VLAN tags
}

// Decode parses an Ethernet header (and stacked VLAN tags) from data.
// It returns the number of bytes consumed.
func (e *Ethernet) Decode(data []byte) (int, error) {
	if len(data) < EthernetHeaderLen {
		return 0, ErrFrameTooShort
	}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	t := EtherType(binary.BigEndian.Uint16(data[12:14]))
	off := EthernetHeaderLen
	e.VLANCount = 0
	for (t == EtherTypeVLAN || t == EtherTypeQinQ) && e.VLANCount < 2 {
		if len(data) < off+VLANTagLen {
			return 0, ErrHeaderTooShort
		}
		tci := binary.BigEndian.Uint16(data[off : off+2])
		e.VLANs[e.VLANCount] = tci & 0x0fff
		e.VLANCount++
		t = EtherType(binary.BigEndian.Uint16(data[off+2 : off+4]))
		off += VLANTagLen
	}
	e.Type = t
	e.HeaderLen = off
	return off, nil
}

// Encode serializes the header into buf, which must have room for
// EncodedLen bytes. It returns the number of bytes written.
func (e *Ethernet) Encode(buf []byte) (int, error) {
	n := e.EncodedLen()
	if len(buf) < n {
		return 0, ErrFrameTooShort
	}
	copy(buf[0:6], e.Dst[:])
	copy(buf[6:12], e.Src[:])
	off := 12
	for i := 0; i < e.VLANCount; i++ {
		binary.BigEndian.PutUint16(buf[off:], uint16(EtherTypeVLAN))
		binary.BigEndian.PutUint16(buf[off+2:], e.VLANs[i]&0x0fff)
		off += VLANTagLen
	}
	binary.BigEndian.PutUint16(buf[off:], uint16(e.Type))
	off += 2
	return off, nil
}

// EncodedLen returns the number of bytes Encode will write.
func (e *Ethernet) EncodedLen() int {
	return EthernetHeaderLen + e.VLANCount*VLANTagLen
}
