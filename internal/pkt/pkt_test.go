package pkt

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
	"testing/quick"
)

func mac(b byte) MAC { return MAC{b, b, b, b, b, b} }

func TestEthernetRoundTrip(t *testing.T) {
	e := Ethernet{Dst: mac(1), Src: mac(2), Type: EtherTypeIPv4}
	buf := make([]byte, 64)
	n, err := e.Encode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != EthernetHeaderLen {
		t.Fatalf("encoded len = %d, want %d", n, EthernetHeaderLen)
	}
	var d Ethernet
	m, err := d.Decode(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if m != n || d.Dst != e.Dst || d.Src != e.Src || d.Type != e.Type || d.VLANCount != 0 {
		t.Fatalf("decode mismatch: %+v", d)
	}
}

func TestEthernetVLAN(t *testing.T) {
	e := Ethernet{Dst: mac(1), Src: mac(2), Type: EtherTypeIPv6, VLANCount: 1}
	e.VLANs[0] = 42
	buf := make([]byte, 64)
	n, err := e.Encode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != EthernetHeaderLen+VLANTagLen {
		t.Fatalf("encoded len = %d", n)
	}
	var d Ethernet
	if _, err := d.Decode(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if d.VLANCount != 1 || d.VLANs[0] != 42 || d.Type != EtherTypeIPv6 {
		t.Fatalf("vlan decode mismatch: %+v", d)
	}
	if d.HeaderLen != n {
		t.Fatalf("HeaderLen = %d, want %d", d.HeaderLen, n)
	}
}

func TestEthernetQinQ(t *testing.T) {
	// Hand-build an 802.1ad outer + 802.1Q inner tag stack.
	buf := make([]byte, 22)
	d9, s8 := mac(9), mac(8)
	copy(buf[0:6], d9[:])
	copy(buf[6:12], s8[:])
	binary.BigEndian.PutUint16(buf[12:], uint16(EtherTypeQinQ))
	binary.BigEndian.PutUint16(buf[14:], 100)
	binary.BigEndian.PutUint16(buf[16:], uint16(EtherTypeVLAN))
	binary.BigEndian.PutUint16(buf[18:], 200)
	binary.BigEndian.PutUint16(buf[20:], uint16(EtherTypeIPv4))
	var d Ethernet
	n, err := d.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 22 || d.VLANCount != 2 || d.VLANs[0] != 100 || d.VLANs[1] != 200 || d.Type != EtherTypeIPv4 {
		t.Fatalf("qinq decode mismatch: n=%d %+v", n, d)
	}
}

func TestEthernetTooShort(t *testing.T) {
	var d Ethernet
	if _, err := d.Decode(make([]byte, 13)); err != ErrFrameTooShort {
		t.Fatalf("err = %v, want ErrFrameTooShort", err)
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if got := m.String(); got != "de:ad:be:ef:00:01" {
		t.Fatalf("String() = %q", got)
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	ip := IPv4{
		TOS: 0x10, TotalLen: 40, ID: 0x1234, Flags: IPv4DontFragment,
		TTL: 63, Protocol: IPProtoTCP,
		Src: netip.MustParseAddr("192.0.2.1"),
		Dst: netip.MustParseAddr("198.51.100.7"),
	}
	buf := make([]byte, 64)
	n, err := ip.Encode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != IPv4MinHeaderLen {
		t.Fatalf("encoded %d bytes", n)
	}
	var d IPv4
	m, err := d.Decode(buf[:40])
	if err != nil {
		t.Fatal(err)
	}
	if m != n {
		t.Fatalf("decode consumed %d, want %d", m, n)
	}
	if d.Src != ip.Src || d.Dst != ip.Dst || d.TTL != 63 || d.Protocol != IPProtoTCP ||
		d.ID != 0x1234 || d.Flags != IPv4DontFragment || d.TOS != 0x10 {
		t.Fatalf("decode mismatch: %+v", d)
	}
	if !d.VerifyChecksum(buf[:40]) {
		t.Fatal("checksum did not verify")
	}
	buf[8] ^= 0xff // corrupt TTL
	if d.VerifyChecksum(buf[:40]) {
		t.Fatal("corrupted header passed checksum")
	}
}

func TestIPv4Fragment(t *testing.T) {
	ip := IPv4{TotalLen: 20, TTL: 1, Protocol: IPProtoUDP,
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
		Flags: IPv4MoreFragments}
	buf := make([]byte, 20)
	if _, err := ip.Encode(buf); err != nil {
		t.Fatal(err)
	}
	var d IPv4
	if _, err := d.Decode(buf); err != nil {
		t.Fatal(err)
	}
	if !d.IsFragment() {
		t.Fatal("MF fragment not detected")
	}
	// Non-first fragment.
	ip.Flags = 0
	ip.FragOffset = 100
	if _, err := ip.Encode(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Decode(buf); err != nil {
		t.Fatal(err)
	}
	if !d.IsFragment() || d.FragOffset != 100 {
		t.Fatalf("fragment offset mismatch: %+v", d)
	}
}

func TestIPv4Malformed(t *testing.T) {
	var d IPv4
	if _, err := d.Decode(make([]byte, 10)); err != ErrHeaderTooShort {
		t.Fatalf("short: %v", err)
	}
	b := make([]byte, 20)
	b[0] = 6 << 4
	if _, err := d.Decode(b); err != ErrBadVersion {
		t.Fatalf("version: %v", err)
	}
	b[0] = 4<<4 | 3 // IHL below minimum
	if _, err := d.Decode(b); err != ErrBadHeaderLen {
		t.Fatalf("ihl: %v", err)
	}
	b[0] = 4<<4 | 15 // IHL beyond buffer
	if _, err := d.Decode(b); err != ErrHeaderTooShort {
		t.Fatalf("ihl long: %v", err)
	}
	// TotalLen smaller than header length.
	b[0] = 4<<4 | 5
	binary.BigEndian.PutUint16(b[2:], 10)
	if _, err := d.Decode(b); err != ErrBadHeaderLen {
		t.Fatalf("totallen: %v", err)
	}
}

func TestIPv6RoundTrip(t *testing.T) {
	ip := IPv6{
		TrafficClass: 7, FlowLabel: 0xabcde, PayloadLen: 20,
		Protocol: IPProtoTCP, HopLimit: 42,
		Src: netip.MustParseAddr("2001:db8::1"),
		Dst: netip.MustParseAddr("2001:db8::2"),
	}
	buf := make([]byte, 80)
	n, err := ip.Encode(buf)
	if err != nil {
		t.Fatal(err)
	}
	var d IPv6
	m, err := d.Decode(buf[:n+20])
	if err != nil {
		t.Fatal(err)
	}
	if m != IPv6HeaderLen {
		t.Fatalf("consumed %d", m)
	}
	if d.Src != ip.Src || d.Dst != ip.Dst || d.Protocol != IPProtoTCP ||
		d.HopLimit != 42 || d.TrafficClass != 7 || d.FlowLabel != 0xabcde {
		t.Fatalf("decode mismatch: %+v", d)
	}
}

func TestIPv6ExtensionHeaders(t *testing.T) {
	// Fixed header with hop-by-hop -> dst opts -> TCP chain.
	buf := make([]byte, IPv6HeaderLen+8+8+TCPMinHeaderLen)
	ip := IPv6{
		PayloadLen: uint16(8 + 8 + TCPMinHeaderLen),
		Protocol:   IPProtoHopByHop, HopLimit: 64,
		Src: netip.MustParseAddr("2001:db8::10"),
		Dst: netip.MustParseAddr("2001:db8::20"),
	}
	if _, err := ip.Encode(buf); err != nil {
		t.Fatal(err)
	}
	off := IPv6HeaderLen
	buf[off] = uint8(IPProtoDstOpts) // next header
	buf[off+1] = 0                   // 8 bytes total
	off += 8
	buf[off] = uint8(IPProtoTCP)
	buf[off+1] = 0
	var d IPv6
	n, err := d.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != IPv6HeaderLen+16 {
		t.Fatalf("consumed %d, want %d", n, IPv6HeaderLen+16)
	}
	if d.Protocol != IPProtoTCP {
		t.Fatalf("protocol = %v", d.Protocol)
	}
}

func TestIPv6Fragment(t *testing.T) {
	buf := make([]byte, IPv6HeaderLen+8)
	ip := IPv6{PayloadLen: 8, Protocol: IPProtoFragment, HopLimit: 64,
		Src: netip.MustParseAddr("2001:db8::1"), Dst: netip.MustParseAddr("2001:db8::2")}
	if _, err := ip.Encode(buf); err != nil {
		t.Fatal(err)
	}
	buf[IPv6HeaderLen] = uint8(IPProtoTCP)
	var d IPv6
	if _, err := d.Decode(buf); err != nil {
		t.Fatal(err)
	}
	if !d.Fragmented {
		t.Fatal("fragment header not flagged")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	tc := TCP{
		SrcPort: 443, DstPort: 51234,
		Seq: 0xdeadbeef, Ack: 0x01020304,
		Flags: TCPSyn | TCPAck, Window: 65535, Urgent: 7,
		Options: []byte{TCPOptMSS, 4, 0x05, 0xb4},
	}
	buf := make([]byte, 64)
	n, err := tc.Encode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 24 {
		t.Fatalf("encoded %d", n)
	}
	var d TCP
	m, err := d.Decode(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if m != n || d.SrcPort != 443 || d.DstPort != 51234 || d.Seq != 0xdeadbeef ||
		d.Ack != 0x01020304 || d.Window != 65535 || d.Urgent != 7 {
		t.Fatalf("decode mismatch: %+v", d)
	}
	if !d.IsSYNACK() || d.IsSYN() {
		t.Fatal("flag classification wrong")
	}
	if !bytes.Equal(d.Options, tc.Options) {
		t.Fatalf("options = %x, want %x", d.Options, tc.Options)
	}
}

func TestTCPFlagHelpers(t *testing.T) {
	cases := []struct {
		flags            uint8
		syn, synack, ack bool
	}{
		{TCPSyn, true, false, false},
		{TCPSyn | TCPAck, false, true, true},
		{TCPAck, false, false, true},
		{TCPFin | TCPAck, false, false, true},
	}
	for _, c := range cases {
		tc := TCP{Flags: c.flags}
		if tc.IsSYN() != c.syn || tc.IsSYNACK() != c.synack || tc.ACK() != c.ack {
			t.Errorf("flags %08b: IsSYN=%v IsSYNACK=%v ACK=%v", c.flags, tc.IsSYN(), tc.IsSYNACK(), tc.ACK())
		}
	}
}

func TestTCPTimestampOption(t *testing.T) {
	opts := []byte{
		TCPOptNop, TCPOptNop,
		TCPOptTimestamp, 10, 0, 0, 0, 1, 0, 0, 0, 2,
	}
	tc := TCP{SrcPort: 1, DstPort: 2, Options: opts}
	buf := make([]byte, 64)
	n, err := tc.Encode(buf)
	if err != nil {
		t.Fatal(err)
	}
	var d TCP
	if _, err := d.Decode(buf[:n]); err != nil {
		t.Fatal(err)
	}
	tsval, tsecr, ok := d.TimestampOption()
	if !ok || tsval != 1 || tsecr != 2 {
		t.Fatalf("timestamp = %d,%d,%v", tsval, tsecr, ok)
	}
	// The walk steps over a well-formed option before the timestamp.
	d.Options = append([]byte{TCPOptMSS, 4, 0x05, 0xb4}, opts...)
	if tsval, tsecr, ok := d.TimestampOption(); !ok || tsval != 1 || tsecr != 2 {
		t.Fatalf("timestamp after MSS = %d,%d,%v", tsval, tsecr, ok)
	}
}

func TestTCPMalformedOptions(t *testing.T) {
	for _, c := range []struct {
		name string
		opts []byte
	}{
		// An option with length 0 must not loop forever or panic.
		{"zero-length option", []byte{TCPOptMSS, 0, 0}},
		{"truncated option", []byte{TCPOptMSS}},
		{"length past the end", []byte{TCPOptMSS, 6, 0x05, 0xb4}},
		{"truncated timestamp", []byte{TCPOptTimestamp, 10, 0, 0, 0, 1}},
		{"timestamp of the wrong length", []byte{TCPOptTimestamp, 6, 0, 0, 0, 1}},
		{"timestamp after the end of options", []byte{TCPOptEnd, TCPOptTimestamp, 10, 0, 0, 0, 1, 0, 0, 0, 2}},
	} {
		d := TCP{Options: c.opts}
		if _, _, ok := d.TimestampOption(); ok {
			t.Errorf("%s: timestamp reported present", c.name)
		}
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := UDP{SrcPort: 53, DstPort: 5353, Length: 16}
	buf := make([]byte, 16)
	if _, err := u.Encode(buf); err != nil {
		t.Fatal(err)
	}
	var d UDP
	n, err := d.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != UDPHeaderLen || d.SrcPort != 53 || d.DstPort != 5353 || d.Length != 16 {
		t.Fatalf("decode mismatch: %+v", d)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: checksum of 00 01 f2 03 f4 f5 f6 f7 is 0x220d
	// (complement of 0xddf2).
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data, 0); got != 0x220d {
		t.Fatalf("checksum = %#04x, want 0x220d", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Trailing odd byte is padded on the right.
	a := Checksum([]byte{0x01, 0x02, 0x03}, 0)
	b := Checksum([]byte{0x01, 0x02, 0x03, 0x00}, 0)
	if a != b {
		t.Fatalf("odd-length checksum mismatch: %#x vs %#x", a, b)
	}
}

func TestChecksumProperty(t *testing.T) {
	// Inserting the computed checksum makes the data sum to 0xffff —
	// the invariant IP stacks rely on.
	f := func(data []byte) bool {
		if len(data)%2 != 0 {
			data = append(data, 0)
		}
		cs := Checksum(data, 0)
		buf := make([]byte, len(data)+2)
		copy(buf, data)
		buf[len(data)] = byte(cs >> 8)
		buf[len(data)+1] = byte(cs)
		return uint16(foldChecksum(partialChecksum(buf, 0))) == 0xffff
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildAndParseTCPFrame(t *testing.T) {
	spec := &TCPFrameSpec{
		SrcMAC: mac(0xaa), DstMAC: mac(0xbb),
		Src: netip.MustParseAddr("203.0.113.5"), Dst: netip.MustParseAddr("192.0.2.9"),
		SrcPort: 40000, DstPort: 443,
		Seq: 1000, Flags: TCPSyn, Window: 64240,
		Options: []byte{TCPOptMSS, 4, 0x05, 0xb4},
	}
	buf := make([]byte, 128)
	n, err := BuildTCPFrame(buf, spec)
	if err != nil {
		t.Fatal(err)
	}
	if n != TCPFrameLen(spec) {
		t.Fatalf("frame len %d, want %d", n, TCPFrameLen(spec))
	}
	var p Parser
	p.VerifyChecksums = true
	var s Summary
	if err := p.Parse(buf[:n], &s); err != nil {
		t.Fatal(err)
	}
	if !s.IsTCP() {
		t.Fatal("TCP not decoded")
	}
	if s.Src() != spec.Src || s.Dst() != spec.Dst {
		t.Fatalf("addr mismatch: %v -> %v", s.Src(), s.Dst())
	}
	if s.TCP.SrcPort != 40000 || s.TCP.DstPort != 443 || !s.TCP.IsSYN() {
		t.Fatalf("tcp mismatch: %+v", s.TCP)
	}
	// Verify the TCP checksum end-to-end.
	src4, dst4 := spec.Src.As4(), spec.Dst.As4()
	seg := buf[EthernetHeaderLen+IPv4MinHeaderLen : n]
	if !VerifyTransportChecksum(src4[:], dst4[:], IPProtoTCP, seg) {
		t.Fatal("TCP checksum invalid")
	}
}

func TestBuildAndParseTCPFrameIPv6(t *testing.T) {
	spec := &TCPFrameSpec{
		SrcMAC: mac(1), DstMAC: mac(2),
		Src: netip.MustParseAddr("2001:db8::5"), Dst: netip.MustParseAddr("2001:db8::9"),
		SrcPort: 50000, DstPort: 80,
		Flags: TCPSyn | TCPAck,
	}
	buf := make([]byte, 128)
	n, err := BuildTCPFrame(buf, spec)
	if err != nil {
		t.Fatal(err)
	}
	var p Parser
	var s Summary
	if err := p.Parse(buf[:n], &s); err != nil {
		t.Fatal(err)
	}
	if !s.IsTCP() || !s.IPv6 {
		t.Fatalf("decode = %v ipv6=%v", s.Decoded, s.IPv6)
	}
	if !s.TCP.IsSYNACK() {
		t.Fatal("flags lost")
	}
	src16, dst16 := spec.Src.As16(), spec.Dst.As16()
	seg := buf[EthernetHeaderLen+IPv6HeaderLen : n]
	if !VerifyTransportChecksum(src16[:], dst16[:], IPProtoTCP, seg) {
		t.Fatal("TCPv6 checksum invalid")
	}
}

func TestBuildVLANFrame(t *testing.T) {
	spec := &TCPFrameSpec{
		SrcMAC: mac(1), DstMAC: mac(2), VLAN: 300,
		Src: netip.MustParseAddr("10.1.1.1"), Dst: netip.MustParseAddr("10.2.2.2"),
		SrcPort: 1234, DstPort: 80, Flags: TCPAck,
	}
	buf := make([]byte, 128)
	n, err := BuildTCPFrame(buf, spec)
	if err != nil {
		t.Fatal(err)
	}
	var p Parser
	var s Summary
	if err := p.Parse(buf[:n], &s); err != nil {
		t.Fatal(err)
	}
	if s.Eth.VLANCount != 1 || s.Eth.VLANs[0] != 300 {
		t.Fatalf("vlan lost: %+v", s.Eth)
	}
	if !s.IsTCP() {
		t.Fatal("TCP not decoded through VLAN")
	}
}

func TestBuildUDPFrame(t *testing.T) {
	buf := make([]byte, 256)
	payload := []byte("dns query")
	n, err := BuildUDPFrame(buf, mac(1), mac(2),
		netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"), 5000, 53, payload)
	if err != nil {
		t.Fatal(err)
	}
	var p Parser
	var s Summary
	if err := p.Parse(buf[:n], &s); err != nil {
		t.Fatal(err)
	}
	if s.Decoded&LayerUDP == 0 {
		t.Fatal("UDP not decoded")
	}
	if string(s.Payload) != "dns query" {
		t.Fatalf("payload = %q", s.Payload)
	}
}

func TestParserNonIP(t *testing.T) {
	var p Parser
	var s Summary
	buf := make([]byte, 64)
	e := Ethernet{Dst: mac(1), Src: mac(2), Type: EtherTypeARP}
	n, _ := e.Encode(buf)
	if err := p.Parse(buf[:n], &s); err != nil {
		t.Fatal(err)
	}
	if s.Decoded != LayerEthernet {
		t.Fatalf("decoded = %v", s.Decoded)
	}
	if p.Stats.NonIP != 1 {
		t.Fatalf("stats = %+v", p.Stats)
	}
}

func TestParserTruncatedTCP(t *testing.T) {
	spec := &TCPFrameSpec{
		SrcMAC: mac(1), DstMAC: mac(2),
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
		SrcPort: 1, DstPort: 2, Flags: TCPSyn,
	}
	buf := make([]byte, 128)
	n, err := BuildTCPFrame(buf, spec)
	if err != nil {
		t.Fatal(err)
	}
	var p Parser
	var s Summary
	if err := p.Parse(buf[:n-10], &s); err == nil {
		t.Fatal("truncated TCP should error")
	}
	if p.Stats.Errors != 1 {
		t.Fatalf("stats = %+v", p.Stats)
	}
}

func TestParseRoundTripProperty(t *testing.T) {
	// Any frame built by BuildTCPFrame parses back to the same 4-tuple,
	// flags and payload.
	f := func(srcIP, dstIP [4]byte, sp, dp uint16, seq, ack uint32, flags uint8, payload []byte) bool {
		src := netip.AddrFrom4(srcIP)
		dst := netip.AddrFrom4(dstIP)
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		spec := &TCPFrameSpec{
			SrcMAC: mac(1), DstMAC: mac(2),
			Src: src, Dst: dst, SrcPort: sp, DstPort: dp,
			Seq: seq, Ack: ack, Flags: flags, Payload: payload,
		}
		buf := make([]byte, 1600)
		n, err := BuildTCPFrame(buf, spec)
		if err != nil {
			return false
		}
		var p Parser
		p.VerifyChecksums = true
		var s Summary
		if err := p.Parse(buf[:n], &s); err != nil {
			return false
		}
		if !s.IsTCP() || s.Src() != src || s.Dst() != dst {
			return false
		}
		if s.TCP.SrcPort != sp || s.TCP.DstPort != dp || s.TCP.Seq != seq ||
			s.TCP.Ack != ack || s.TCP.Flags != flags {
			return false
		}
		return string(s.Payload) == string(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParserZeroAlloc(t *testing.T) {
	spec := &TCPFrameSpec{
		SrcMAC: mac(1), DstMAC: mac(2),
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
		SrcPort: 1, DstPort: 2, Flags: TCPSyn,
	}
	buf := make([]byte, 128)
	n, err := BuildTCPFrame(buf, spec)
	if err != nil {
		t.Fatal(err)
	}
	var p Parser
	var s Summary
	allocs := testing.AllocsPerRun(1000, func() {
		if err := p.Parse(buf[:n], &s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Parse allocates %v times per frame; fast path must not allocate", allocs)
	}
}

func TestEtherTypeProtoStrings(t *testing.T) {
	if EtherTypeIPv4.String() != "IPv4" || EtherTypeIPv6.String() != "IPv6" ||
		EtherTypeVLAN.String() != "802.1Q" || EtherType(0x1234).String() != "unknown" {
		t.Fatal("EtherType strings")
	}
	if IPProtoTCP.String() != "TCP" || IPProtoUDP.String() != "UDP" || IPProto(200).String() != "unknown" {
		t.Fatal("IPProto strings")
	}
}
