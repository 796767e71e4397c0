package experiments

import (
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"sync"
	"time"

	"ruru/internal/core"
	"ruru/internal/gen"
	"ruru/internal/geo"
	"ruru/internal/nic"
	"ruru/internal/pkt"
	"ruru/internal/rss"
)

// E2Row is one point of the throughput-scaling experiment: aggregate packet
// rate with a given number of RSS queues/cores (paper Fig. 2 and the
// "high-speed, 10 Gbit/s" claim).
type E2Row struct {
	Queues      int
	Packets     int64
	Elapsed     time.Duration
	Mpps        float64
	Gbps        float64 // at the trace's mean frame size
	MeanFrameSz float64
	Measured    uint64 // handshakes completed during the run
}

// E2Config parameterizes the scaling sweep.
type E2Config struct {
	Seed       int64
	QueueList  []int // default {1,2,4,8}
	TracePkts  int   // packets in the pre-rendered trace (default 300k)
	RunPackets int64 // total packets per row (default 2M)
	Burst      int   // default 64
}

// E2 runs the sweep.
//
// Topology per row: Q fully independent units, each owning one RSS queue —
// its own mempool, SPSC ring, delivery goroutine (standing in for the NIC's
// per-queue DMA engine) and measurement worker polling with RxBurst. This is
// the paper's architecture: hardware RSS classifies (here: pre-computed
// before the clock starts, since a real NIC does it at line rate in
// silicon), then each core polls its own queue sharing nothing. The timed
// region covers delivery, buffer recycling, burst polling, parsing and
// handshake-table processing.
func E2(cfg E2Config, w io.Writer) ([]E2Row, error) {
	if len(cfg.QueueList) == 0 {
		cfg.QueueList = []int{1, 2, 4, 8}
	}
	if cfg.TracePkts <= 0 {
		cfg.TracePkts = 300_000
	}
	if cfg.RunPackets <= 0 {
		cfg.RunPackets = 2_000_000
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 64
	}
	world, err := geo.NewWorld(geo.WorldOptions{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	// A handshake-heavy but realistic mix: data segments and UDP noise
	// exercise the negative-lookup path that dominates a real link.
	g, err := gen.New(gen.Config{
		Seed: cfg.Seed, World: world,
		FlowRate: 20_000, Duration: 1e15,
		DataSegments: 3, UDPRate: 4_000, MidstreamRate: 500,
	})
	if err != nil {
		return nil, err
	}
	trace := make([]gen.TracePacket, 0, cfg.TracePkts)
	var p gen.Packet
	var bytes int64
	for len(trace) < cfg.TracePkts && g.Next(&p) {
		frame := make([]byte, len(p.Frame))
		copy(frame, p.Frame)
		tp := gen.TracePacket{TS: p.TS, Frame: frame, SrcPort: p.SrcPort, DstPort: p.DstPort}
		tp.Src, tp.Dst = p.Src.As16(), p.Dst.As16()
		tp.Is6 = p.Src.Is6() && !p.Src.Is4In6()
		trace = append(trace, tp)
		bytes += int64(len(frame))
	}
	meanFrame := float64(bytes) / float64(len(trace))

	if w != nil {
		fmt.Fprintf(w, "E2: pipeline throughput vs RSS queues (Fig. 2; %d-pkt trace, mean frame %.0fB, GOMAXPROCS=%d)\n",
			len(trace), meanFrame, runtime.GOMAXPROCS(0))
		fmt.Fprintf(w, "  %-7s %12s %10s %8s %8s %10s\n", "queues", "packets", "elapsed", "Mpps", "Gbps", "measured")
	}
	rows := make([]E2Row, 0, len(cfg.QueueList))
	for _, q := range cfg.QueueList {
		row := e2Run(trace, meanFrame, q, cfg)
		rows = append(rows, row)
		if w != nil {
			fmt.Fprintf(w, "  %-7d %12d %10s %8.2f %8.2f %10d\n",
				row.Queues, row.Packets, row.Elapsed.Round(time.Millisecond),
				row.Mpps, row.Gbps, row.Measured)
		}
	}
	return rows, nil
}

func e2Run(trace []gen.TracePacket, meanFrame float64, queues int, cfg E2Config) E2Row {
	hasher := rss.NewSymmetric()

	// Pre-classify the trace onto queues with the symmetric RSS hash —
	// the work NIC silicon does at line rate — before the clock starts.
	type classified struct {
		frame []byte
		ts    int64
		hash  uint32
	}
	perQueue := make([][]classified, queues)
	for i := range trace {
		tp := &trace[i]
		src := addrFrom(tp.Src, tp.Is6)
		dst := addrFrom(tp.Dst, tp.Is6)
		h := hasher.HashTuple(src, dst, tp.SrcPort, tp.DstPort)
		q := rss.Queue(h, queues)
		perQueue[q] = append(perQueue[q], classified{frame: tp.Frame, ts: tp.TS, hash: h})
	}
	perUnit := cfg.RunPackets / int64(queues)

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		totalPkts int64
		totalMeas uint64
	)
	start := time.Now()
	for q := 0; q < queues; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			share := perQueue[q]
			if len(share) == 0 {
				return
			}
			pool := nic.NewMempool(8192, 2048)
			port, err := nic.NewPort(nic.PortConfig{
				Queues: 1, QueueDepth: 4096, Pool: pool,
				// The DMA stand-in is a lossless looping source: Block
				// makes backpressure a port concern instead of a
				// caller-side stats-diff retry loop.
				Policy: nic.Block,
			})
			if err != nil {
				return
			}
			// Delivery goroutine: the per-queue DMA engine. It streams the
			// unit's share of the trace into the port in preclassified
			// bursts until the target is reached.
			var delivered int64
			injected := make(chan struct{})
			go func() {
				defer close(injected)
				burst := cfg.Burst
				frames := make([]nic.Frame, 0, burst)
				hashes := make([]uint32, 0, burst)
				i := 0
				for delivered < perUnit {
					frames, hashes = frames[:0], hashes[:0]
					for len(frames) < burst && delivered+int64(len(frames)) < perUnit {
						c := &share[i]
						i++
						if i == len(share) {
							i = 0
						}
						frames = append(frames, nic.Frame{Data: c.frame, TS: c.ts})
						hashes = append(hashes, c.hash)
					}
					delivered += int64(port.InjectPreclassifiedBurst(frames, hashes))
				}
			}()

			// Measurement worker: burst-poll, parse, process.
			table := core.NewHandshakeTable(core.TableConfig{
				Capacity: 1 << 16,
				Timeout:  1 << 62, // replay laps reuse timestamps
				Queue:    q,
			})
			var (
				parser   pkt.Parser
				sum      pkt.Summary
				m        core.Measurement
				bufs     = make([]*nic.Buf, cfg.Burst)
				done     int64
				measured uint64
			)
			for done < perUnit {
				n, _ := port.RxBurst(0, bufs)
				if n == 0 {
					runtime.Gosched()
					continue
				}
				for i := 0; i < n; i++ {
					b := bufs[i]
					if err := parser.Parse(b.Bytes(), &sum); err == nil && sum.IsTCP() {
						if table.Process(&sum, b.Timestamp, b.RSSHash, &m) {
							measured++
						}
					}
				}
				nic.FreeBurst(bufs[:n])
				done += int64(n)
			}
			// Unmap the arena: every frame delivered has been freed, and
			// the delivery goroutine holds no buffer once it has returned.
			<-injected
			if err := pool.Close(); err != nil {
				panic(err)
			}
			mu.Lock()
			totalPkts += done
			totalMeas += measured
			mu.Unlock()
		}(q)
	}
	wg.Wait()
	elapsed := time.Since(start)

	return E2Row{
		Queues:      queues,
		Packets:     totalPkts,
		Elapsed:     elapsed,
		Mpps:        float64(totalPkts) / elapsed.Seconds() / 1e6,
		Gbps:        float64(totalPkts) * meanFrame * 8 / elapsed.Seconds() / 1e9,
		MeanFrameSz: meanFrame,
		Measured:    totalMeas,
	}
}

func addrFrom(b [16]byte, is6 bool) netip.Addr {
	if is6 {
		return netip.AddrFrom16(b)
	}
	return netip.AddrFrom16(b).Unmap()
}

// E2BurstRow is one point of the burst-size ablation.
type E2BurstRow struct {
	Burst int
	Mpps  float64
}

// E2Burst sweeps the RxBurst size at a fixed queue count — the batching
// ablation. DPDK's poll-mode performance rests on amortizing per-packet
// overhead (ring synchronization, cache misses) across bursts; this
// quantifies how much of that story survives in the reproduction.
func E2Burst(cfg E2Config, queues int, burstList []int, w io.Writer) ([]E2BurstRow, error) {
	if len(burstList) == 0 {
		burstList = []int{1, 4, 16, 64, 256}
	}
	if queues <= 0 {
		queues = 4
	}
	base := cfg
	base.QueueList = []int{queues}
	if w != nil {
		fmt.Fprintf(w, "E2b: burst-size ablation at %d queues\n", queues)
		fmt.Fprintf(w, "  %-7s %8s\n", "burst", "Mpps")
	}
	rows := make([]E2BurstRow, 0, len(burstList))
	for _, burst := range burstList {
		c := base
		c.Burst = burst
		out, err := E2(c, nil)
		if err != nil {
			return rows, err
		}
		row := E2BurstRow{Burst: burst, Mpps: out[0].Mpps}
		rows = append(rows, row)
		if w != nil {
			fmt.Fprintf(w, "  %-7d %8.2f\n", row.Burst, row.Mpps)
		}
	}
	return rows, nil
}
