package pkt

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

// A tap parses whatever the wire delivers; the parser must never panic and
// must never claim success on garbage it could not actually decode.

func TestParserNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(data []byte) bool {
		var p Parser
		var s Summary
		// Must not panic; error or success both acceptable.
		_ = p.Parse(data, &s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestParserNeverPanicsOnMutatedFrames(t *testing.T) {
	// Start from valid frames and flip bytes — the adversarial middle
	// ground where malformed-but-plausible headers live.
	rng := rand.New(rand.NewSource(99))
	spec := &TCPFrameSpec{
		SrcMAC: MAC{1}, DstMAC: MAC{2},
		Src: mustAddr("10.0.0.1"), Dst: mustAddr("192.0.2.1"),
		SrcPort: 40000, DstPort: 443, Flags: TCPSyn,
		Options: []byte{TCPOptMSS, 4, 0x05, 0xb4},
		Payload: []byte("0123456789abcdef"),
	}
	base := make([]byte, 256)
	n, err := BuildTCPFrame(base, spec)
	if err != nil {
		t.Fatal(err)
	}
	base = base[:n]
	var p Parser
	var s Summary
	frame := make([]byte, n)
	for i := 0; i < 20000; i++ {
		copy(frame, base)
		// 1-4 random byte mutations.
		for m := 0; m <= rng.Intn(4); m++ {
			frame[rng.Intn(n)] = byte(rng.Uint32())
		}
		// Random truncation 1/4 of the time.
		f := frame
		if rng.Intn(4) == 0 {
			f = frame[:rng.Intn(n+1)]
		}
		_ = p.Parse(f, &s) // must not panic
	}
}

func TestIPv6ExtensionHeaderBombs(t *testing.T) {
	// Deep/looping extension chains must terminate with an error, not
	// hang or overread.
	var p Parser
	var s Summary
	frame := make([]byte, 1024)
	eth := Ethernet{Dst: MAC{1}, Src: MAC{2}, Type: EtherTypeIPv6}
	off, _ := eth.Encode(frame)
	ip := IPv6{PayloadLen: 900, Protocol: IPProtoHopByHop, HopLimit: 64,
		Src: mustAddr("2001:db8::1"), Dst: mustAddr("2001:db8::2")}
	ipn, _ := ip.Encode(frame[off:])
	// 20 chained hop-by-hop headers, each pointing at another.
	pos := off + ipn
	for i := 0; i < 20; i++ {
		frame[pos] = byte(IPProtoHopByHop)
		frame[pos+1] = 0
		pos += 8
	}
	if err := p.Parse(frame[:pos], &s); err == nil {
		t.Fatal("unbounded extension chain accepted")
	}
}

func TestTCPOptionParsingBounds(t *testing.T) {
	// Every possible 1-3 byte option prefix must parse without panic.
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b += 7 {
			tc := TCP{Options: []byte{byte(a), byte(b), 0xff}}
			_, _, _ = tc.TimestampOption()
		}
	}
}

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }
