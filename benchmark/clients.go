package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ruru/internal/ruru"
	"ruru/internal/tsdb"
	"ruru/internal/ws"
)

// phase tells the viewer how the injector currently maps the data clock to
// the wall clock: a measurement stamped T in [shift, end) was due on the
// wire at start + (T-shift)/speed. Measurements before split were taken
// while the dashboard query ran beside ingest.
type phase struct {
	start      time.Time
	shift, end int64
	speed      float64
	split      int64
}

// viewer is the browser: one /ws client that timestamps every frame on
// receipt and turns each measurement in it into a tap-to-live latency.
type viewer struct {
	conn  *ws.Conn
	phase atomic.Pointer[phase]
	done  chan struct{}

	mu         sync.Mutex
	probe      []float64 // ms, query-free
	underQuery []float64 // ms, beside the dashboard query
	frames     uint64
	meas       uint64
}

// latencyWindow is the stretch of an open loop one cost sample covers.
const latencyWindow = 0.5 // s

// dialViewer attaches a viewer to the /ws endpoint of the server at httpURL.
func dialViewer(httpURL string) (*viewer, error) {
	conn, err := ws.Dial("ws://" + strings.TrimPrefix(httpURL, "http://") + "/ws")
	if err != nil {
		return nil, fmt.Errorf("viewer: %w", err)
	}
	v := &viewer{conn: conn, done: make(chan struct{})}
	go v.read()
	return v, nil
}

func (v *viewer) read() {
	defer close(v.done)
	var frame []struct {
		Time int64 `json:"time"`
	}
	for {
		_, data, err := v.conn.ReadMessage()
		if err != nil {
			return // closed by close(), or the hub went away
		}
		now := time.Now()
		frame = frame[:0]
		if err := json.Unmarshal(data, &frame); err != nil {
			continue // counted as missing: settle compares frame counts
		}
		ph := v.phase.Load()
		v.mu.Lock()
		v.frames++
		v.meas += uint64(len(frame))
		for _, m := range frame {
			if ph == nil || m.Time < ph.shift || m.Time >= ph.end {
				continue
			}
			due := time.Duration(float64(m.Time-ph.shift) / ph.speed)
			ms := float64(now.Sub(ph.start.Add(due))) / 1e6
			if m.Time < ph.split {
				v.underQuery = append(v.underQuery, ms)
			} else {
				v.probe = append(v.probe, ms)
			}
		}
		v.mu.Unlock()
	}
}

// settle waits until the viewer has read every frame the hub sent it, then
// freezes its samples. The pipeline is quiescent when this is called.
func (v *viewer) settle(p *ruru.Pipeline) {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		sent, _ := p.Hub.Stats() // this viewer is the hub's only client ever
		v.mu.Lock()
		got := v.frames
		v.mu.Unlock()
		if got >= sent {
			break
		}
		time.Sleep(time.Millisecond)
	}
	v.close()
}

func (v *viewer) close() {
	_ = v.conn.Close() // best-effort close handshake; idempotent
	<-v.done
}

// querier is the dashboard: one HTTP client issuing the PR 10 dashboard
// query (latency.total_ms over the last hour in 10 s windows by source city).
type querier struct {
	client *http.Client
	url    string
	ms     []float64
	due    int
	failed int
}

const queryWindow = int64(10e9)

func newQuerier(base string) *querier {
	return &querier{client: &http.Client{Timeout: 10 * time.Second}, url: base}
}

// dashboardQuery is the PR 10 dashboard shape over the hour that ends at the
// first window boundary at or after now on the data clock.
func dashboardQuery(now int64) tsdb.Query {
	end := (now + queryWindow - 1) / queryWindow * queryWindow
	return tsdb.Query{Measurement: "latency", Field: "total_ms", Start: end - 3600e9, End: end,
		Window: queryWindow, GroupBy: "src_city", Aggs: []tsdb.AggKind{tsdb.AggMean, tsdb.AggP95, tsdb.AggCount}}
}

// get runs the dashboard query over HTTP and reports whether it returned
// 200 with a body.
func (q *querier) get(now int64) bool {
	dq := dashboardQuery(now)
	aggs := make([]string, len(dq.Aggs))
	for i, a := range dq.Aggs {
		aggs[i] = string(a)
	}
	resp, err := q.client.Get(fmt.Sprintf("%s/api/query?measurement=%s&field=%s&start=%d&end=%d&window=%d&group_by=%s&agg=%s",
		q.url, dq.Measurement, dq.Field, dq.Start, dq.End, dq.Window, dq.GroupBy, strings.Join(aggs, ",")))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	return err == nil && resp.StatusCode == http.StatusOK && n > 2
}

// schedule issues the query every 1/queryHz seconds for runFor, each timed
// from when it was due. The data clock runs 1:1 with the wall from base.
func (q *querier) schedule(start time.Time, runFor time.Duration, base int64) {
	const period = time.Second / queryHz
	for k := 0; time.Duration(k)*period < runFor; k++ {
		due := start.Add(time.Duration(k) * period)
		q.due++
		time.Sleep(time.Until(due))
		if time.Since(due) > queryLate {
			q.failed++
			continue
		}
		if q.get(base + time.Since(start).Nanoseconds()) {
			q.ms = append(q.ms, float64(time.Since(due))/1e6)
		} else {
			q.failed++
		}
	}
}

// atRest issues up to n queries back to back against a quiescent store
// whose newest point is at end, within restBudget.
func (q *querier) atRest(end int64, n int) {
	stop := time.Now().Add(restBudget)
	for k := 0; k < n && (k < 3 || time.Now().Before(stop)); k++ {
		q.due++
		t0 := time.Now()
		if q.get(end) {
			q.ms = append(q.ms, float64(time.Since(t0))/1e6)
		} else {
			q.failed++
		}
	}
}
