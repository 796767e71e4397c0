package nic_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ruru/internal/gen"
	"ruru/internal/geo"
	"ruru/internal/nic"
	"ruru/internal/pkt"
)

// synSource returns a source of n SYN frames, frame i from source port
// 1000+i at timestamp ts(i), all built into one reused buffer the way a
// capture reader hands out records.
func synSource(n int, ts func(i int) int64) func(*nic.Frame) error {
	buf := make([]byte, 128)
	i := 0
	return func(f *nic.Frame) error {
		if i == n {
			return io.EOF
		}
		l, err := pkt.BuildTCPFrame(buf, &pkt.TCPFrameSpec{
			SrcMAC: pkt.MAC{1}, DstMAC: pkt.MAC{2},
			Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("192.0.2.1"),
			SrcPort: uint16(1000 + i), DstPort: 443, Flags: pkt.TCPSyn,
		})
		if err != nil {
			return err
		}
		f.Data, f.TS = buf[:l], ts(i)
		i++
		return nil
	}
}

func newPort(t *testing.T, queues, depth int, policy nic.OverflowPolicy) (*nic.Port, *nic.Mempool) {
	t.Helper()
	pool := nic.NewMempool(1024, 2048)
	port, err := nic.NewPort(nic.PortConfig{Queues: queues, QueueDepth: depth, Pool: pool, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	return port, pool
}

// TestDriveCopiesAliasedFrames: the source reuses one buffer for every
// frame, so each queued frame must be Drive's own copy, in order.
func TestDriveCopiesAliasedFrames(t *testing.T) {
	const frames = 20
	port, pool := newPort(t, 1, 64, nic.Drop)
	n, err := nic.Drive(context.Background(), port, 8, false, synSource(frames, func(i int) int64 { return int64(i) }))
	if n != frames || err != nil {
		t.Fatalf("Drive = %d, %v; want %d, nil", n, err, frames)
	}
	want := synSource(frames, func(i int) int64 { return int64(i) })
	bufs := make([]*nic.Buf, 64)
	got, _ := port.RxBurst(0, bufs)
	if got != frames {
		t.Fatalf("queued %d, want %d", got, frames)
	}
	var f nic.Frame
	for i, b := range bufs[:got] {
		if err := want(&f); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), f.Data) || b.Timestamp != f.TS {
			t.Fatalf("frame %d: ts %d, bytes differ from the source's frame %d", i, b.Timestamp, i)
		}
	}
	nic.FreeBurst(bufs[:got])
	if pool.Available() != pool.Size() {
		t.Fatal("buffers leaked")
	}
}

// TestDriveSourceError: an error other than io.EOF ends the drive with the
// frames read before it injected and counted.
func TestDriveSourceError(t *testing.T) {
	boom := errors.New("source failed")
	src := synSource(5, func(i int) int64 { return int64(i) })
	next := func(f *nic.Frame) error {
		if err := src(f); err != io.EOF {
			return err
		}
		return boom
	}
	port, _ := newPort(t, 2, 64, nic.Block)
	n, err := nic.Drive(context.Background(), port, 64, false, next)
	if n != 5 || !errors.Is(err, boom) {
		t.Fatalf("Drive = %d, %v; want 5, %v", n, err, boom)
	}
	if st := port.Stats(); st.Ipackets != 5 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestDrivePaces: a paced frame goes out no earlier than its offset from
// the first frame's timestamp, and each one is injected before Drive
// sleeps for the next.
func TestDrivePaces(t *testing.T) {
	const frames, gap = 4, 25 * time.Millisecond
	base := int64(1e18) // timestamps on an arbitrary epoch: only offsets count
	port, _ := newPort(t, 1, 64, nic.Drop)
	var (
		mu      sync.Mutex
		arrived []time.Duration
		start   = time.Now()
		stop    = make(chan struct{})
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		bufs := make([]*nic.Buf, 8)
		for {
			n, _ := port.RxBurst(0, bufs)
			if n > 0 {
				mu.Lock()
				for range n {
					arrived = append(arrived, time.Since(start))
				}
				mu.Unlock()
				nic.FreeBurst(bufs[:n])
				continue
			}
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()
	n, err := nic.Drive(context.Background(), port, 64, true, synSource(frames, func(i int) int64 { return base + int64(i)*int64(gap) }))
	if n != frames || err != nil {
		t.Fatalf("Drive = %d, %v", n, err)
	}
	if took := time.Since(start); took < (frames-1)*gap-2*time.Millisecond {
		t.Fatalf("paced drive of %v of capture took %v", (frames-1)*gap, took)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		k := len(arrived)
		mu.Unlock()
		if k == frames {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d frames arrived", k, frames)
		}
	}
	close(stop)
	wg.Wait()
	// Frame i is due at i×gap; it may arrive late, never early. A frame
	// held back in a partial burst until the end would arrive late by the
	// rest of the capture.
	for i, at := range arrived {
		if due := time.Duration(i) * gap; at < due-2*time.Millisecond {
			t.Fatalf("frame %d arrived at %v, due at %v", i, at, due)
		}
	}
	if last := arrived[frames-2]; last > (frames-1)*gap {
		t.Fatalf("frame %d held until %v, after the next frame was due", frames-2, last)
	}
}

// TestDriveCancelStopsPort: cancelling the context ends a drive blocked on
// a full Block-policy queue, whose consumers are gone, and one sleeping
// until a paced frame is due.
func TestDriveCancelStopsPort(t *testing.T) {
	for _, c := range []struct {
		name string
		pace bool
		ts   func(i int) int64
		want int // frames accepted before the cancel
	}{
		{"blocked", false, func(i int) int64 { return int64(i) }, 2},
		{"pacing", true, func(i int) int64 { return int64(i) * 10e9 }, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			port, pool := newPort(t, 1, 2, nic.Block)
			ctx, cancel := context.WithCancel(context.Background())
			type result struct {
				n   int
				err error
			}
			done := make(chan result, 1)
			go func() {
				n, err := nic.Drive(ctx, port, 1, c.pace, synSource(100, c.ts))
				done <- result{n, err}
			}()
			time.Sleep(20 * time.Millisecond)
			cancel()
			select {
			case r := <-done:
				if r.n != c.want || !errors.Is(r.err, context.Canceled) {
					t.Fatalf("Drive = %d, %v; want %d, context.Canceled", r.n, r.err, c.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("cancel did not end the drive")
			}
			if got := pool.Available(); got != pool.Size()-c.want {
				t.Fatalf("available = %d with %d frames queued, want %d", got, c.want, pool.Size()-c.want)
			}
		})
	}
}

// TestDriveDropCountsEachFrameOnce: a drive over a Drop-policy port that
// overflows counts each frame once — accepted, or missed — and delivers
// exactly what it counted as accepted. The retry loop Drive replaced
// re-injected refused frames until they went in and counted every refusal,
// so it reported thousands of Imissed on a run that delivered every frame.
func TestDriveDropCountsEachFrameOnce(t *testing.T) {
	world, err := geo.NewWorld(geo.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.New(gen.Config{Seed: 7, World: world, FlowRate: 3000, Duration: 2e9})
	if err != nil {
		t.Fatal(err)
	}
	const queues = 2
	pool := nic.NewMempool(16384, 2048)
	port, err := nic.NewPort(nic.PortConfig{Queues: queues, QueueDepth: 64, Pool: pool, Policy: nic.Drop})
	if err != nil {
		t.Fatal(err)
	}
	var (
		stop    atomic.Bool
		drained atomic.Uint64
		wg      sync.WaitGroup
	)
	for q := range queues {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bufs := make([]*nic.Buf, 16)
			for {
				if n, _ := port.RxBurst(q, bufs); n > 0 {
					drained.Add(uint64(n))
					nic.FreeBurst(bufs[:n])
					continue
				}
				if stop.Load() {
					return
				}
				time.Sleep(50 * time.Microsecond)
			}
		}()
	}
	src := g.Source()
	offered := 0
	count := func(f *nic.Frame) error {
		err := src(f)
		if err == nil {
			offered++
		}
		return err
	}
	accepted, err := nic.Drive(context.Background(), port, 64, false, count)
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	st := port.Stats()
	t.Logf("offered %d, stats %+v", offered, st)
	if st.Ipackets+st.Imissed != uint64(offered) || st.Ipackets != uint64(accepted) {
		t.Fatalf("offered %d, accepted %d, stats %+v: each frame must count once", offered, accepted, st)
	}
	if st.NoMbuf != 0 || st.Ierrors != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if drained.Load() != st.Ipackets {
		t.Fatalf("consumers drained %d, port counted %d enqueued", drained.Load(), st.Ipackets)
	}
	if pool.Available() != pool.Size() {
		t.Fatal("buffers leaked")
	}
}
