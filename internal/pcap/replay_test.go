package pcap

import (
	"bytes"
	"context"
	"net/netip"
	"testing"

	"ruru/internal/nic"
	"ruru/internal/pkt"
)

func buildTestCapture(t *testing.T, n int, base int64) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 128)
	for i := 0; i < n; i++ {
		spec := &pkt.TCPFrameSpec{
			SrcMAC: pkt.MAC{1}, DstMAC: pkt.MAC{2},
			Src:     netip.AddrFrom4([4]byte{10, 0, 0, byte(i%250 + 1)}),
			Dst:     netip.AddrFrom4([4]byte{192, 0, 2, 1}),
			SrcPort: uint16(1024 + i), DstPort: 443, Flags: pkt.TCPSyn,
		}
		ln, err := pkt.BuildTCPFrame(frame, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WritePacket(base+int64(i)*1000, frame[:ln]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestReplayToPort(t *testing.T) {
	const frames = 300
	// A nonzero capture epoch: replay must rebase timestamps to 0.
	capture := buildTestCapture(t, frames, 1_700_000_000_000_000_000)
	r, err := NewReader(capture)
	if err != nil {
		t.Fatal(err)
	}
	pool := nic.NewMempool(1024, 2048)
	port, err := nic.NewPort(nic.PortConfig{Queues: 2, QueueDepth: 512, Pool: pool, Policy: nic.Block})
	if err != nil {
		t.Fatal(err)
	}
	n, err := nic.Drive(context.Background(), port, 32, false, r.Source())
	if err != nil {
		t.Fatal(err)
	}
	if n != frames {
		t.Fatalf("accepted %d, want %d", n, frames)
	}
	if st := port.Stats(); st.Ipackets != frames || st.Imissed != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// Drain: timestamps must be rebased (first frame at 0, 1µs spacing)
	// and per-queue arrival order preserved.
	bufs := make([]*nic.Buf, 64)
	seen := 0
	for q := 0; q < port.NumQueues(); q++ {
		last := int64(-1)
		for {
			k, _ := port.RxBurst(q, bufs)
			if k == 0 {
				break
			}
			for i := 0; i < k; i++ {
				ts := bufs[i].Timestamp
				if ts < 0 || ts >= frames*1000 {
					t.Fatalf("timestamp %d not rebased", ts)
				}
				if ts <= last {
					t.Fatalf("queue %d out of order: %d after %d", q, ts, last)
				}
				last = ts
				bufs[i].Free()
				seen++
			}
		}
	}
	if seen != frames {
		t.Fatalf("drained %d, want %d", seen, frames)
	}
	if pool.Available() != pool.Size() {
		t.Fatal("buffers leaked")
	}
}

func TestReplayToPortCancelled(t *testing.T) {
	capture := buildTestCapture(t, 100, 0)
	r, err := NewReader(capture)
	if err != nil {
		t.Fatal(err)
	}
	pool := nic.NewMempool(256, 2048)
	port, err := nic.NewPort(nic.PortConfig{Queues: 1, QueueDepth: 256, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := nic.Drive(ctx, port, 0, false, r.Source()); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestReplayToPortDropOverflow(t *testing.T) {
	// A tiny Drop-policy port must lose exactly the overflow and count it.
	capture := buildTestCapture(t, 100, 0)
	r, err := NewReader(capture)
	if err != nil {
		t.Fatal(err)
	}
	pool := nic.NewMempool(256, 2048)
	port, err := nic.NewPort(nic.PortConfig{Queues: 1, QueueDepth: 16, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	n, err := nic.Drive(context.Background(), port, 50, false, r.Source())
	if err != nil {
		t.Fatal(err)
	}
	st := port.Stats()
	if n != 16 || st.Ipackets != 16 || st.Imissed != 84 {
		t.Fatalf("accepted %d, stats %+v", n, st)
	}
}
