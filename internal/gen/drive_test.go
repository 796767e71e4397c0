package gen

import (
	"context"
	"slices"
	"testing"

	"ruru/internal/nic"
)

// drainPort empties every queue, freeing buffers, and returns the frames'
// timestamps.
func drainPort(t *testing.T, port *nic.Port) []int64 {
	t.Helper()
	bufs := make([]*nic.Buf, 256)
	var tss []int64
	for q := 0; q < port.NumQueues(); q++ {
		for {
			n, err := port.RxBurst(q, bufs)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			for _, b := range bufs[:n] {
				tss = append(tss, b.Timestamp)
			}
			nic.FreeBurst(bufs[:n])
		}
	}
	return tss
}

func TestSourceDriveLossless(t *testing.T) {
	// Drive over Source on a Block port delivers the exact generated
	// stream, each frame with its own timestamp: the generator's clock is
	// passed through, not rebased.
	cfg := Config{Seed: 7, World: world(t), FlowRate: 300, Duration: 2e9}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := nic.NewMempool(16384, 2048)
	port, err := nic.NewPort(nic.PortConfig{Queues: 2, QueueDepth: 8192, Pool: pool, Policy: nic.Block})
	if err != nil {
		t.Fatal(err)
	}
	injected, err := nic.Drive(context.Background(), port, 32, false, g.Source())
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var (
		p   Packet
		tss []int64
	)
	for want.Next(&p) {
		tss = append(tss, p.TS)
	}
	if injected == 0 || injected != len(tss) {
		t.Fatalf("injected %d of %d packets", injected, len(tss))
	}
	st := port.Stats()
	if st.Ipackets != uint64(injected) || st.Imissed != 0 || st.NoMbuf != 0 || st.Ierrors != 0 {
		t.Fatalf("stats: %+v (injected %d)", st, injected)
	}
	got := drainPort(t, port)
	slices.Sort(got)
	slices.Sort(tss)
	if !slices.Equal(got, tss) {
		t.Fatalf("drained %d frames, timestamps differ from the generator's %d", len(got), len(tss))
	}
}
