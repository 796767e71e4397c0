//go:build unix

package ruru

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"ruru/internal/gen"
	"ruru/internal/nic"
	"ruru/internal/tsdb"
	"ruru/internal/ws"
)

// frameBudgetMs is the paper's map frame budget: arcs drawn at 30 fps (§2).
const frameBudgetMs = 1000.0 / 30

// fanViewer is one /ws client. Only a decoding viewer parses frames, as the
// browser drawing arcs would; the others count frames and bytes.
type fanViewer struct {
	conn   *ws.Conn
	decode bool
	done   chan struct{}
	clock  *atomic.Pointer[paceClock]

	frames, bytes, meas atomic.Int64
	lags                []float64 // ms, receipt − due; decoding viewer only
}

// paceClock maps the data clock to the wall clock the way a paced
// nic.Drive does: a packet stamped ts was due at wall + (ts − first).
type paceClock struct {
	wall  time.Time
	first int64
}

func (v *fanViewer) read() {
	defer close(v.done)
	var frame []struct {
		Time int64 `json:"time"`
	}
	for {
		_, msg, err := v.conn.ReadMessage()
		if err != nil {
			return
		}
		v.frames.Add(1)
		v.bytes.Add(int64(len(msg)))
		if !v.decode {
			continue
		}
		now := time.Now()
		frame = frame[:0]
		if json.Unmarshal(msg, &frame) != nil {
			continue // counted short: the measurement check fails
		}
		clk := v.clock.Load()
		for _, m := range frame {
			due := clk.wall.Add(time.Duration(m.Time - clk.first))
			v.lags = append(v.lags, float64(now.Sub(due))/1e6)
		}
		v.meas.Add(int64(len(frame)))
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestLiveFanOut measures the live map's fan-out (ROADMAP item 13): the
// full pipeline at the live workload's traffic mix, paced in real time,
// with p.Hub mounted on an HTTP server and 1, 10 and 100 viewers on /ws.
// Every viewer must receive exactly Engine.Completed measurements with
// nothing dropped. It logs, per viewer, bytes/s, frames, and the lag from
// a measurement's packet being due on the wire to its frame's receipt,
// p50/p99 against the 33 ms frame budget, plus process CPU per
// measurement (viewers included). The 100-viewer leg skips under -short
// and -race.
func TestLiveFanOut(t *testing.T) {
	for _, viewers := range []int{1, 10, 100} {
		t.Run(fmt.Sprintf("viewers=%d", viewers), func(t *testing.T) {
			if viewers == 100 && (testing.Short() || raceEnabled) {
				t.Skip("100 viewers: skipped under -short and -race")
			}
			liveFanOut(t, viewers)
		})
	}
}

func liveFanOut(t *testing.T, viewers int) {
	w := newWorld(t)
	p, err := New(Config{GeoDB: w.DB(), Queues: 4, SinkWorkers: 4, SinkBatch: 64, DBStripes: 8,
		Rollups: tsdb.DefaultRollups(), Overflow: nic.Block})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go p.Run(ctx)
	srv := httptest.NewServer(p.Hub)
	defer srv.Close()

	var clock atomic.Pointer[paceClock]
	vs := make([]*fanViewer, viewers)
	for i := range vs {
		c, err := ws.Dial("ws://" + strings.TrimPrefix(srv.URL, "http://") + "/ws")
		if err != nil {
			t.Fatal(err)
		}
		vs[i] = &fanViewer{conn: c, decode: i == 0, done: make(chan struct{}), clock: &clock}
		go vs[i].read()
	}
	defer func() {
		for _, v := range vs {
			v.conn.Close()
			<-v.done
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); p.Hub.LiveClients() < viewers; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d viewers registered", p.Hub.LiveClients(), viewers)
		}
	}

	// The live workload's mix (benchmark/workloads.go liveMix): 6000
	// flows/s, paced on the wall clock.
	const seconds = 3
	g, err := gen.New(gen.Config{Seed: 13, World: w, Duration: seconds * 1e9,
		FlowRate: 6000, DataSegments: 2, UDPRate: 3000, MidstreamRate: 300,
		SYNLoss: 0.01, SYNACKLoss: 0.01, IPv6Fraction: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	next := g.Source()
	src := func(f *nic.Frame) error {
		err := next(f)
		if err == nil && clock.Load() == nil {
			clock.Store(&paceClock{wall: time.Now(), first: f.TS})
		}
		return err
	}
	cpu0, start := cpuTime(t), time.Now()
	if _, err := nic.Drive(ctx, p.Port, 0, true, src); err != nil {
		t.Fatal(err)
	}

	// Drained: the sink has disposed of every completed handshake and every
	// viewer has read every frame the hub sent it.
	var st Stats
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st = p.Stats()
		read := int64(0)
		for _, v := range vs {
			read += v.frames.Load()
		}
		if p.Pool.Available() == p.Pool.Size() && st.Accounted() == st.Engine.Completed &&
			st.HubSent+st.HubDrop == uint64(viewers)*uint64(vs[0].frames.Load()) &&
			uint64(read) == st.HubSent && uint64(vs[0].meas.Load()) == st.Engine.Completed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("not drained: completed %d, accounted %d, first viewer read %d measurements in %d frames, hub sent %d dropped %d, all viewers read %d frames",
				st.Engine.Completed, st.Accounted(), vs[0].meas.Load(), vs[0].frames.Load(), st.HubSent, st.HubDrop, read)
		}
	}
	elapsed, cpu := time.Since(start), cpuTime(t)-cpu0

	if st.HubDrop != 0 {
		t.Errorf("HubDrop = %d, want 0", st.HubDrop)
	}
	if st.Engine.Completed == 0 {
		t.Fatal("no handshake completed")
	}
	// Every viewer got every frame the first one decoded: the same count
	// and the same bytes, so exactly Engine.Completed measurements.
	for i, v := range vs[1:] {
		if v.frames.Load() != vs[0].frames.Load() || v.bytes.Load() != vs[0].bytes.Load() {
			t.Errorf("viewer %d read %d frames / %d bytes, viewer 0 %d / %d",
				i+1, v.frames.Load(), v.bytes.Load(), vs[0].frames.Load(), vs[0].bytes.Load())
		}
	}
	first := vs[0]
	first.conn.Close()
	<-first.done // its lags are final
	slices.Sort(first.lags)
	pct := func(q float64) float64 { return first.lags[int(q*float64(len(first.lags)-1))] }
	t.Logf("%d viewers, %d measurements: per viewer %d frames, %.0f B/s; lag p50 %.1f ms, p99 %.1f ms (budget %.0f ms); CPU %.1f µs/measurement",
		viewers, st.Engine.Completed, first.frames.Load(), float64(first.bytes.Load())/elapsed.Seconds(),
		pct(0.50), pct(0.99), frameBudgetMs, float64(cpu)/1e3/float64(st.Engine.Completed))
}
