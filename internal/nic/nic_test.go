package nic

import (
	"context"
	"io"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"ruru/internal/pkt"
	"ruru/internal/rss"
)

func buildSYN(t testing.TB, src, dst string, sp, dp uint16) []byte {
	t.Helper()
	spec := &pkt.TCPFrameSpec{
		SrcMAC: pkt.MAC{1, 1, 1, 1, 1, 1}, DstMAC: pkt.MAC{2, 2, 2, 2, 2, 2},
		Src: netip.MustParseAddr(src), Dst: netip.MustParseAddr(dst),
		SrcPort: sp, DstPort: dp, Flags: pkt.TCPSyn, Window: 65535,
	}
	buf := make([]byte, 128)
	n, err := pkt.BuildTCPFrame(buf, spec)
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

// get takes one buffer from p, or nil when it is empty.
func get(p *Mempool) *Buf {
	var one [1]*Buf
	p.getBulk(one[:])
	return one[0]
}

// inject hands port one frame as a burst of one and reports whether the
// port enqueued it.
func inject(port *Port, frame []byte, ts int64) bool {
	return port.InjectBurst([]Frame{{Data: frame, TS: ts}}) == 1
}

func TestMempoolAccounting(t *testing.T) {
	p := NewMempool(4, 256)
	if p.Size() != 4 || p.Available() != 4 || p.BufSize() != 256 {
		t.Fatalf("pool geometry: %d/%d/%d", p.Size(), p.Available(), p.BufSize())
	}
	bufs := make([]*Buf, 4)
	for i := range bufs {
		bufs[i] = get(p)
		if bufs[i] == nil {
			t.Fatalf("get %d failed", i)
		}
	}
	if p.Available() != 0 {
		t.Fatalf("available = %d", p.Available())
	}
	if get(p) != nil {
		t.Fatal("get from empty pool returned a buffer")
	}
	for _, b := range bufs {
		b.Free()
	}
	if p.Available() != 4 {
		t.Fatalf("available after free = %d", p.Available())
	}
}

func TestMempoolBuffersDistinct(t *testing.T) {
	p := NewMempool(8, 64)
	seen := map[*byte]bool{}
	for i := 0; i < 8; i++ {
		b := get(p)
		if len(b.Data) != 64 || cap(b.Data) != 64 {
			t.Fatalf("buf %d geometry: len=%d cap=%d", i, len(b.Data), cap(b.Data))
		}
		if seen[&b.Data[0]] {
			t.Fatal("two buffers share backing memory")
		}
		seen[&b.Data[0]] = true
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestDoubleFreePanics(t *testing.T) {
	p := NewMempool(4, 64)
	a, b := get(p), get(p)
	a.Free()
	mustPanic(t, "second Free", a.Free)
	mustPanic(t, "FreeBurst of a freed buffer", func() { FreeBurst([]*Buf{a}) })
	mustPanic(t, "FreeBurst naming one buffer twice", func() { FreeBurst([]*Buf{b, b}) })
	// The pool survives the panics unlocked and with each buffer in it once.
	if p.Available() != 4 {
		t.Fatalf("available = %d, want 4", p.Available())
	}
	seen := map[*Buf]bool{}
	for i := 0; i < 4; i++ {
		seen[get(p)] = true
	}
	if len(seen) != 4 || seen[nil] {
		t.Fatalf("pool handed out %d distinct buffers, want 4", len(seen))
	}
}

func TestMempoolIsLIFO(t *testing.T) {
	p := NewMempool(8, 64)
	a, b, c := get(p), get(p), get(p)
	b.Free()
	a.Free()
	c.Free()
	if got := get(p); got != c {
		t.Fatal("get did not return the buffer freed last")
	}
	if got := get(p); got != a {
		t.Fatal("second get did not return the buffer freed before it")
	}
	// A burst put back is taken again top first, and a bulk get put back
	// untouched leaves the stack as it was.
	FreeBurst([]*Buf{c, a})
	var two [2]*Buf
	if n := p.getBulk(two[:]); n != 2 || two[1] != a || two[0] != c {
		t.Fatalf("getBulk = %d %p %p, want the burst back in stack order", n, two[0], two[1])
	}
	p.putBulk(two[:])
	if got := get(p); got != a {
		t.Fatal("stack order changed across an unused bulk get")
	}
	// Buffers of two pools in one burst each go home.
	q := NewMempool(2, 64)
	x := get(q)
	FreeBurst([]*Buf{a, x})
	if p.Available() != 8 || q.Available() != 2 {
		t.Fatalf("available = %d and %d, want 8 and 2", p.Available(), q.Available())
	}
}

func TestMempoolClose(t *testing.T) {
	p := NewMempool(4, 64)
	b := get(p)
	b.Data[0] = 1
	if err := p.Close(); err == nil {
		t.Fatal("Close succeeded with a buffer out")
	}
	if b.Data[0] != 1 || p.Available() != 3 {
		t.Fatal("a refused Close disturbed the pool")
	}
	b.Free()
	if err := p.Close(); err != nil {
		t.Fatalf("Close with every buffer home: %v", err)
	}
	if get(p) != nil || b.Data != nil {
		t.Fatal("a closed pool still hands out memory")
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestPortValidation(t *testing.T) {
	if _, err := NewPort(PortConfig{Queues: 0, Pool: NewMempool(1, 64)}); err == nil {
		t.Fatal("zero queues accepted")
	}
	if _, err := NewPort(PortConfig{Queues: 1}); err == nil {
		t.Fatal("nil pool accepted")
	}
	if _, err := NewPort(PortConfig{Queues: 1, QueueDepth: 3, Pool: NewMempool(1, 64)}); err == nil {
		t.Fatal("non-power-of-two depth accepted")
	}
}

func TestInjectAndRxBurst(t *testing.T) {
	pool := NewMempool(64, 2048)
	port, err := NewPort(PortConfig{Queues: 1, QueueDepth: 64, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	frame := buildSYN(t, "10.0.0.1", "10.0.0.2", 1234, 80)
	inject(port, frame, 1000)
	inject(port, frame, 2000)

	bufs := make([]*Buf, 32)
	n, err := port.RxBurst(0, bufs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("RxBurst = %d, want 2", n)
	}
	if bufs[0].Timestamp != 1000 || bufs[1].Timestamp != 2000 {
		t.Fatalf("timestamps: %d, %d", bufs[0].Timestamp, bufs[1].Timestamp)
	}
	if string(bufs[0].Bytes()) != string(frame) {
		t.Fatal("frame contents corrupted")
	}
	st := port.Stats()
	if st.Ipackets != 2 || st.Ibytes != uint64(2*len(frame)) {
		t.Fatalf("stats: %+v", st)
	}
	for i := 0; i < n; i++ {
		bufs[i].Free()
	}
	if pool.Available() != pool.Size() {
		t.Fatal("buffers leaked")
	}
}

func TestSymmetricQueueAssignment(t *testing.T) {
	// The SYN (C→S) and SYN-ACK (S→C) of one flow must land on the same
	// queue under symmetric RSS — the property the core engine requires.
	pool := NewMempool(256, 2048)
	port, err := NewPort(PortConfig{Queues: 8, QueueDepth: 64, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		src := netip.AddrFrom4([4]byte{10, 0, byte(i), 1})
		dst := netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})
		sp, dp := uint16(1024+i), uint16(443)

		synSpec := &pkt.TCPFrameSpec{
			SrcMAC: pkt.MAC{1}, DstMAC: pkt.MAC{2},
			Src: src, Dst: dst, SrcPort: sp, DstPort: dp, Flags: pkt.TCPSyn,
		}
		buf := make([]byte, 128)
		n, _ := pkt.BuildTCPFrame(buf, synSpec)
		inject(port, buf[:n], 1)

		saSpec := &pkt.TCPFrameSpec{
			SrcMAC: pkt.MAC{2}, DstMAC: pkt.MAC{1},
			Src: dst, Dst: src, SrcPort: dp, DstPort: sp, Flags: pkt.TCPSyn | pkt.TCPAck,
		}
		n, _ = pkt.BuildTCPFrame(buf, saSpec)
		inject(port, buf[:n], 2)
	}
	// Drain every queue; each must contain an even number of packets and
	// each flow's pair must be co-located.
	bufs := make([]*Buf, 256)
	var parser pkt.Parser
	for q := 0; q < port.NumQueues(); q++ {
		n, _ := port.RxBurst(q, bufs)
		flows := map[[2]uint16]int{}
		for i := 0; i < n; i++ {
			var s pkt.Summary
			if err := parser.Parse(bufs[i].Bytes(), &s); err != nil {
				t.Fatal(err)
			}
			// Canonical flow id: min/max of ports.
			a, b := s.TCP.SrcPort, s.TCP.DstPort
			if a > b {
				a, b = b, a
			}
			flows[[2]uint16{a, b}]++
			bufs[i].Free()
		}
		for f, c := range flows {
			if c != 2 {
				t.Errorf("queue %d: flow %v has %d packets, want both directions (2)", q, f, c)
			}
		}
	}
}

func TestQueueOverflowCountsImissed(t *testing.T) {
	pool := NewMempool(64, 2048)
	port, err := NewPort(PortConfig{Queues: 1, QueueDepth: 2, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	frame := buildSYN(t, "10.0.0.1", "10.0.0.2", 1, 2)
	for i := 0; i < 5; i++ {
		inject(port, frame, int64(i))
	}
	st := port.Stats()
	if st.Ipackets != 2 || st.Imissed != 3 {
		t.Fatalf("stats: %+v", st)
	}
	// Dropped frames must return their buffers to the pool.
	if pool.Available() != pool.Size()-2 {
		t.Fatalf("pool: %d available, want %d", pool.Available(), pool.Size()-2)
	}
}

func TestPoolExhaustionCountsNoMbuf(t *testing.T) {
	pool := NewMempool(1, 2048)
	port, err := NewPort(PortConfig{Queues: 1, QueueDepth: 8, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	frame := buildSYN(t, "10.0.0.1", "10.0.0.2", 1, 2)
	inject(port, frame, 1)
	inject(port, frame, 2)
	st := port.Stats()
	if st.Ipackets != 1 || st.NoMbuf != 1 || pool.AllocFailures() != 1 {
		t.Fatalf("stats: %+v, alloc failures %d", st, pool.AllocFailures())
	}
}

func TestOversizeFrameCountsIerrors(t *testing.T) {
	pool := NewMempool(4, 64)
	port, err := NewPort(PortConfig{Queues: 1, QueueDepth: 8, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	inject(port, make([]byte, 128), 1)
	if st := port.Stats(); st.Ierrors != 1 || st.Ipackets != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRxBurstBadQueue(t *testing.T) {
	pool := NewMempool(4, 64)
	port, _ := NewPort(PortConfig{Queues: 1, QueueDepth: 8, Pool: pool})
	if _, err := port.RxBurst(1, make([]*Buf, 1)); err != ErrBadQueue {
		t.Fatalf("err = %v", err)
	}
	if _, err := port.RxBurst(-1, make([]*Buf, 1)); err != ErrBadQueue {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentWorkersDrain(t *testing.T) {
	// One producer injecting, N workers polling their queues — the
	// paper's Fig. 2 topology. All injected packets must be received
	// exactly once and all buffers returned. The port runs the Block
	// policy: a lossless source needs no caller-side retry loop (the
	// seed's stats-diff retry hack recorded ~290k Imissed for 20k
	// frames), and nothing may be counted missed.
	const queues = 4
	const frames = 20000
	pool := NewMempool(8192, 2048)
	port, err := NewPort(PortConfig{
		Queues: queues, QueueDepth: 4096, Pool: pool, Policy: Block,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	received := make([]uint64, queues)
	done := make(chan struct{})
	for q := 0; q < queues; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			bufs := make([]*Buf, 64)
			for {
				n, _ := port.RxBurst(q, bufs)
				for i := 0; i < n; i++ {
					received[q]++
					bufs[i].Free()
				}
				if n == 0 {
					select {
					case <-done:
						// Injection finished: drain until empty.
						for {
							n, _ := port.RxBurst(q, bufs)
							if n == 0 {
								return
							}
							for i := 0; i < n; i++ {
								received[q]++
								bufs[i].Free()
							}
						}
					default:
					}
				}
			}
		}(q)
	}
	// One reused frame buffer, as a capture reader has: Drive copies it.
	frame := make([]byte, 128)
	i := 0
	next := func(f *Frame) error {
		if i == frames {
			return io.EOF
		}
		spec := &pkt.TCPFrameSpec{
			SrcMAC: pkt.MAC{1}, DstMAC: pkt.MAC{2},
			Src:     netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
			Dst:     netip.AddrFrom4([4]byte{192, 0, 2, 1}),
			SrcPort: uint16(i), DstPort: 443, Flags: pkt.TCPSyn,
		}
		n, _ := pkt.BuildTCPFrame(frame, spec)
		f.Data, f.TS = frame[:n], int64(i)
		i++
		return nil
	}
	// Block policy: backpressure is handled by the port.
	if n, err := Drive(context.Background(), port, 64, false, next); n != frames || err != nil {
		t.Fatalf("Drive = %d, %v; want %d, nil", n, err, frames)
	}
	close(done)
	wg.Wait()
	var total uint64
	for _, r := range received {
		total += r
	}
	st := port.Stats()
	if total != frames {
		t.Fatalf("received %d, want %d (stats %+v)", total, frames, st)
	}
	if st.Imissed != 0 || st.Ipackets != frames {
		t.Fatalf("lossless drain counted drops: %+v", st)
	}
	if pool.Available() != pool.Size() {
		t.Fatalf("leaked buffers: %d/%d available", pool.Available(), pool.Size())
	}
}

func TestInjectBurst(t *testing.T) {
	pool := NewMempool(64, 2048)
	port, err := NewPort(PortConfig{Queues: 4, QueueDepth: 64, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	// A burst covering many flows must fan out to the same queues the
	// per-frame path picks, preserving per-queue arrival order.
	var frames []Frame
	for i := 0; i < 32; i++ {
		frames = append(frames, Frame{
			Data: buildSYN(t, "10.0.0.1", "192.0.2.1", uint16(1000+i), 443),
			TS:   int64(i),
		})
	}
	if n := port.InjectBurst(frames); n != 32 {
		t.Fatalf("accepted %d/32", n)
	}
	st := port.Stats()
	if st.Ipackets != 32 || st.Imissed != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// Drain and check per-queue timestamp order (arrival order preserved).
	bufs := make([]*Buf, 64)
	seen := 0
	for q := 0; q < 4; q++ {
		n, _ := port.RxBurst(q, bufs)
		last := int64(-1)
		for i := 0; i < n; i++ {
			if bufs[i].Timestamp <= last {
				t.Fatalf("queue %d out of order: %d after %d", q, bufs[i].Timestamp, last)
			}
			last = bufs[i].Timestamp
			bufs[i].Free()
			seen++
		}
	}
	if seen != 32 {
		t.Fatalf("drained %d/32", seen)
	}
	if pool.Available() != pool.Size() {
		t.Fatal("buffers leaked")
	}
}

func TestInjectBurstDropPolicyCountsOnce(t *testing.T) {
	// Overfill a tiny port: the drop policy must lose exactly the
	// overflow, count each lost frame once, and free its buffer.
	pool := NewMempool(64, 2048)
	port, err := NewPort(PortConfig{Queues: 1, QueueDepth: 8, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	frame := buildSYN(t, "10.0.0.1", "10.0.0.2", 1, 2)
	frames := make([]Frame, 20)
	for i := range frames {
		frames[i] = Frame{Data: frame, TS: int64(i)}
	}
	if n := port.InjectBurst(frames); n != 8 {
		t.Fatalf("accepted %d, want 8", n)
	}
	st := port.Stats()
	if st.Ipackets != 8 || st.Imissed != 12 {
		t.Fatalf("stats: %+v", st)
	}
	qs := port.QueueStats(0)
	if qs.Ipackets != 8 || qs.Imissed != 12 || qs.Depth != 8 || qs.Watermark != 8 || qs.Capacity != 8 {
		t.Fatalf("queue stats: %+v", qs)
	}
	if pool.Available() != pool.Size()-8 {
		t.Fatalf("dropped frames leaked buffers: %d/%d", pool.Available(), pool.Size())
	}
}

func TestInjectBurstOversizeMixed(t *testing.T) {
	// Oversize frames inside a burst are skipped (Ierrors) without
	// disturbing the rest of the batch.
	pool := NewMempool(16, 64)
	port, _ := NewPort(PortConfig{Queues: 1, QueueDepth: 16, Pool: pool})
	small := buildSYN(t, "10.0.0.1", "10.0.0.2", 1, 2)
	frames := []Frame{
		{Data: small, TS: 1},
		{Data: make([]byte, 128), TS: 2},
		{Data: small, TS: 3},
	}
	if n := port.InjectBurst(frames); n != 2 {
		t.Fatalf("accepted %d, want 2", n)
	}
	if st := port.Stats(); st.Ipackets != 2 || st.Ierrors != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestInjectBurstBlockSurvivesPoolSmallerThanBurst(t *testing.T) {
	// Regression: a Block-policy burst larger than the mempool used to
	// deadlock — fill() blocked waiting for buffers that were sitting in
	// the port's own unflushed stage, which no consumer could ever free.
	// The stage must flush before blocking on the pool.
	const frames = 20
	pool := NewMempool(16, 2048) // smaller than the burst
	port, err := NewPort(PortConfig{Queues: 2, QueueDepth: 64, Pool: pool, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // consumer freeing buffers back to the pool
		defer wg.Done()
		bufs := make([]*Buf, 8)
		for {
			idle := true
			for q := 0; q < 2; q++ {
				n, _ := port.RxBurst(q, bufs)
				for i := 0; i < n; i++ {
					bufs[i].Free()
				}
				if n > 0 {
					idle = false
				}
			}
			if idle {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
		}
	}()
	batch := make([]Frame, frames)
	for i := range batch {
		batch[i] = Frame{Data: buildSYN(t, "10.0.0.1", "192.0.2.1", uint16(1000+i), 443), TS: int64(i)}
	}
	done := make(chan int, 1)
	go func() { done <- port.InjectBurst(batch) }()
	select {
	case n := <-done:
		if n != frames {
			t.Fatalf("accepted %d/%d", n, frames)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("InjectBurst deadlocked with burst > pool size")
	}
	close(stop)
	wg.Wait()
	if st := port.Stats(); st.Ipackets != frames || st.Imissed != 0 || st.NoMbuf != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if pool.Available() != pool.Size() {
		t.Fatal("buffers leaked")
	}
}

func TestStopUnblocksBlockedInjection(t *testing.T) {
	// Port.Stop must abort a block wait — the shutdown path when the
	// consumers that would make room are gone.
	pool := NewMempool(8, 2048)
	port, err := NewPort(PortConfig{Queues: 1, QueueDepth: 2, Pool: pool, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	frame := buildSYN(t, "10.0.0.1", "10.0.0.2", 1, 2)
	inject(port, frame, 1)
	inject(port, frame, 2) // queue now full, nobody draining
	done := make(chan bool, 1)
	go func() { done <- inject(port, frame, 3) }()
	time.Sleep(10 * time.Millisecond)
	port.Stop()
	select {
	case ok := <-done:
		if st := port.Stats(); ok || st.Ipackets != 2 || st.Imissed != 1 {
			t.Fatalf("enqueued %v, stats %+v; want the frame dropped and counted once", ok, st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not unblock the injection")
	}
	if pool.Available() != pool.Size()-2 {
		t.Fatal("aborted injection leaked its buffer")
	}
}

func TestBlockWaitsForMempoolWithoutFailureCount(t *testing.T) {
	// A Block-policy injection that waits out transient mempool
	// exhaustion must not count an allocation failure: the run is
	// lossless and the counters must say so.
	pool := NewMempool(1, 2048)
	port, err := NewPort(PortConfig{Queues: 1, QueueDepth: 8, Pool: pool, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	frame := buildSYN(t, "10.0.0.1", "10.0.0.2", 1, 2)
	if !inject(port, frame, 1) {
		t.Fatalf("first inject refused: %+v", port.Stats())
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		bufs := make([]*Buf, 1)
		if n, _ := port.RxBurst(0, bufs); n == 1 {
			bufs[0].Free() // return the only buffer to the pool
		}
	}()
	if !inject(port, frame, 2) {
		t.Fatalf("blocked inject refused: %+v", port.Stats())
	}
	if af := pool.AllocFailures(); af != 0 {
		t.Fatalf("lossless run counted %d alloc failures", af)
	}
	if s := port.Stats(); s.NoMbuf != 0 || s.Ipackets != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestBlockPolicyUnblocksWhenDrained(t *testing.T) {
	// A blocked injection must complete once a consumer makes room.
	pool := NewMempool(8, 2048)
	port, err := NewPort(PortConfig{
		Queues: 1, QueueDepth: 2, Pool: pool, Policy: Block,
	})
	if err != nil {
		t.Fatal(err)
	}
	frame := buildSYN(t, "10.0.0.1", "10.0.0.2", 1, 2)
	inject(port, frame, 1)
	inject(port, frame, 2)
	go func() {
		time.Sleep(5 * time.Millisecond)
		bufs := make([]*Buf, 1)
		n, _ := port.RxBurst(0, bufs)
		if n == 1 {
			bufs[0].Free()
		}
	}()
	if !inject(port, frame, 3) {
		t.Fatalf("blocked inject refused: %+v", port.Stats())
	}
	if s := port.Stats(); s.Ipackets != 3 || s.Imissed != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestInjectBurstLeavesPoolIdle(t *testing.T) {
	// Available() == Size() has to mean nobody holds a buffer, so an
	// injection hands back the buffers it took for frames it then refused
	// — oversize ones, and under Drop those a full queue turned away.
	pool := NewMempool(64, 256)
	port, err := NewPort(PortConfig{Queues: 1, QueueDepth: 4, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	ok, big := buildSYN(t, "10.0.0.1", "192.0.2.1", 1000, 443), make([]byte, 257)
	batch := []Frame{{Data: big}, {Data: ok}, {Data: big}, {Data: ok}, {Data: ok}, {Data: ok}, {Data: ok}, {Data: big}}
	if n := port.InjectBurst(batch); n != 4 {
		t.Fatalf("accepted %d, want the queue's 4", n)
	}
	if got := pool.Available(); got != pool.Size()-4 {
		t.Fatalf("available = %d with 4 frames queued, want %d", got, pool.Size()-4)
	}
	bufs := make([]*Buf, 8)
	n, _ := port.RxBurst(0, bufs)
	FreeBurst(bufs[:n])
	if pool.Available() != pool.Size() {
		t.Fatalf("available = %d of %d after the drain", pool.Available(), pool.Size())
	}
	if st := port.Stats(); st.Ipackets != 4 || st.Ierrors != 3 || st.Imissed != 1 || st.NoMbuf != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// insert returns frame with extra spliced in at off.
func insert(frame []byte, off int, extra ...byte) []byte {
	out := append([]byte(nil), frame[:off]...)
	return append(append(out, extra...), frame[off:]...)
}

func TestClassifyMatchesHashTuple(t *testing.T) {
	// classify hashes tuple bytes where they lie in the frame; the
	// definition is HashTuple over the parsed addresses and ports.
	build := func(src, dst string, sp, dp uint16) []byte { return buildSYN(t, src, dst, sp, dp) }
	v4 := build("66.9.149.187", "161.142.100.80", 2794, 1766)
	v6 := build("3ffe:2501:200:1fff::7", "3ffe:2501:200:3::1", 2794, 1766)
	udp := make([]byte, 128)
	n, err := pkt.BuildUDPFrame(udp, pkt.MAC{1}, pkt.MAC{2},
		netip.MustParseAddr("24.19.198.95"), netip.MustParseAddr("12.22.207.184"), 12898, 38024, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	udp = udp[:n]

	vlan := insert(v4, 12, 0x81, 0x00, 0x00, 0x07)
	opts := insert(v4, 14+20, 1, 1, 1, 1) // four NOP options
	opts[14] = 0x46
	opts[14+3] += 4
	ext := insert(v6, 14+40, 6, 0, 1, 4, 0, 0, 0, 0) // hop-by-hop: next TCP, PadN
	ext[14+6] = 0
	ext[14+5] += 8
	mapped := append([]byte(nil), v6...)
	copy(mapped[14+8:], netip.MustParseAddr("::ffff:10.1.2.3").AsSlice())
	copy(mapped[14+24:], netip.MustParseAddr("::ffff:192.0.2.9").AsSlice())
	halfMapped := append([]byte(nil), v6...)
	copy(halfMapped[14+8:], netip.MustParseAddr("::ffff:10.1.2.3").AsSlice())
	icmp := append([]byte(nil), v4...)
	icmp[14+9] = 1
	frag := append([]byte(nil), v4...)
	frag[14+7] = 9 // fragment offset 9: no transport header in this one
	arp := append([]byte(nil), v4...)
	arp[12], arp[13] = 0x08, 0x06

	for _, h := range []*rss.Hasher{rss.NewSymmetric(), rss.New(rss.MicrosoftKey)} {
		port, err := NewPort(PortConfig{Queues: 1, Pool: NewMempool(1, 64), Hasher: h})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name   string
			frame  []byte
			ports  bool
			hashed bool
		}{
			{"v4", v4, true, true}, {"v6", v6, true, true}, {"udp", udp, true, true},
			{"vlan", vlan, true, true}, {"ip options", opts, true, true}, {"v6 extension", ext, true, true},
			{"v4-mapped pair", mapped, true, true}, {"one v4-mapped", halfMapped, true, true},
			{"icmp", icmp, false, true}, {"fragment", frag, false, true},
			{"arp", arp, false, false}, {"runt", v4[:20], false, false},
		} {
			var (
				parser pkt.Parser
				s      pkt.Summary
				want   uint32
			)
			if err := parser.Parse(c.frame, &s); c.hashed && err != nil {
				t.Fatalf("%s: test frame does not parse: %v", c.name, err)
			}
			switch {
			case c.ports && s.Decoded&pkt.LayerTCP != 0:
				want = h.HashTuple(s.Src(), s.Dst(), s.TCP.SrcPort, s.TCP.DstPort)
			case c.ports && s.Decoded&pkt.LayerUDP != 0:
				want = h.HashTuple(s.Src(), s.Dst(), s.UDP.SrcPort, s.UDP.DstPort)
			case c.ports:
				t.Fatalf("%s: test frame has no transport header (decoded %b)", c.name, s.Decoded)
			case c.hashed:
				want = h.HashTuple(s.Src(), s.Dst(), 0, 0)
			}
			if c.hashed && want == 0 {
				t.Fatalf("%s: reference hash is 0, the test would pass vacuously", c.name)
			}
			if got := port.classify(c.frame); got != want {
				t.Errorf("%s: classify = %#08x, HashTuple = %#08x", c.name, got, want)
			}
		}
	}
}
