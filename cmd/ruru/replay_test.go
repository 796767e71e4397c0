package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"net/netip"
	"os"
	"path/filepath"
	"testing"

	"ruru/internal/nic"
	"ruru/internal/pcap"
	"ruru/internal/pkt"
)

// TestReplayPcapCorruptRecord: a record whose incl_len exceeds the snaplen
// after good records ends the replay like a truncated capture — replayPcap
// returns nil with the good frames injected — so the daemon keeps serving
// and shuts down through Run's drain instead of exiting from main.
func TestReplayPcapCorruptRecord(t *testing.T) {
	const snaplen = 2048
	var b bytes.Buffer
	w, err := pcap.NewWriter(&b, snaplen)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 128)
	for i := range 2 {
		l, err := pkt.BuildTCPFrame(frame, &pkt.TCPFrameSpec{
			SrcMAC: pkt.MAC{1}, DstMAC: pkt.MAC{2},
			Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("192.0.2.1"),
			SrcPort: uint16(1000 + i), DstPort: 443, Flags: pkt.TCPSyn,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WritePacket(int64(i)*1000, frame[:l]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var hdr [16]byte // a record header claiming more bytes than the snaplen
	binary.LittleEndian.PutUint32(hdr[8:], snaplen+1)
	binary.LittleEndian.PutUint32(hdr[12:], snaplen+1)
	b.Write(hdr[:])
	path := filepath.Join(t.TempDir(), "corrupt.pcap")
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	pool := nic.NewMempool(64, 2048)
	defer pool.Close()
	port, err := nic.NewPort(nic.PortConfig{Queues: 1, QueueDepth: 16, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if err := replayPcap(context.Background(), path, port, 8); err != nil {
		t.Fatalf("replayPcap = %v, want nil after the good records", err)
	}
	if got := port.Stats().Ipackets; got != 2 {
		t.Errorf("injected %d frames, want 2", got)
	}
}
