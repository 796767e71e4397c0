// Package web exposes Ruru's HTTP API: the Grafana-style statistics queries
// (paper §2: "the Grafana UI also shows statistics and graphs of the
// measured end-to-end latency (e.g., min, max, median, mean) for a required
// time interval"), the live-map WebSocket endpoint and arc feed, pipeline
// counters, and anomaly events.
//
// Endpoints (full reference with parameters, defaults, error codes and
// example requests in docs/API.md):
//
//	GET  /api/stats      — pipeline counters (JSON, incl. durability)
//	GET  /api/query      — windowed aggregates from the TSDB; the
//	                       resolution parameter selects raw vs rollup tiers
//	GET  /api/tags       — distinct tag values for dashboard pickers
//	GET  /api/arcs       — recent arcs for the 3D map (JSON)
//	GET  /api/topk       — sketch-tier heavy hitters (flows, prefixes,
//	                       city pairs); 409 without -flow-table-bytes
//	GET  /api/anomalies  — latency-spike, SYN-flood and surge events
//	POST /api/checkpoint — force a durable checkpoint + WAL truncation
//	POST /write          — Influx line-protocol ingest
//	GET  /snapshot       — full TSDB dump as line protocol
//	GET  /ws             — WebSocket live measurement feed (JSON arrays),
//	                       the one feed: a stream parameter is a 400
package web

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ruru/internal/anomaly"
	"ruru/internal/ruru"
	"ruru/internal/tsdb"
)

// Server wires a Pipeline to an http.Handler.
type Server struct {
	p   *ruru.Pipeline
	mux *http.ServeMux

	// snapshotErrors counts /snapshot responses that failed mid-stream
	// (client gone, or a stripe dump error). The failure is also reported
	// in-band via the Ruru-Snapshot-Error trailer — the status line is long
	// sent by then — so a piped `curl | restore` can tell a truncated dump
	// from a complete one.
	snapshotErrors atomic.Uint64
}

// NewServer builds the handler around p.
func NewServer(p *ruru.Pipeline) *Server {
	s := &Server{p: p, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /api/stats", s.handleStats)
	s.mux.HandleFunc("GET /api/query", s.handleQuery)
	s.mux.HandleFunc("GET /api/tags", s.handleTags)
	s.mux.HandleFunc("GET /api/arcs", s.handleArcs)
	s.mux.HandleFunc("GET /api/topk", s.handleTopK)
	s.mux.HandleFunc("GET /api/anomalies", s.handleAnomalies)
	s.mux.HandleFunc("POST /api/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("POST /write", s.handleWrite)
	s.mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	s.mux.Handle("GET /ws", p.Hub)
	return s
}

// handleSnapshot streams the whole TSDB as line protocol — the export half
// of long-term storage. The output can be POSTed back to /write (here or on
// a real InfluxDB) to restore. The dump is staged per stripe before any
// byte reaches the client, so a slow (or adversarially stalled) consumer
// cannot hold TSDB locks and stall ingest.
// Completeness is reported in trailers (set after the body): a successful
// dump carries Ruru-Snapshot-Points, a failed one Ruru-Snapshot-Error plus
// a bump of the stats counter — the old code dropped both return values of
// DB.Snapshot, so a truncated dump was indistinguishable from a full one.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Trailer", "Ruru-Snapshot-Points, Ruru-Snapshot-Error")
	points, err := s.p.DB.Snapshot(w)
	if err != nil {
		s.snapshotErrors.Add(1)
		log.Printf("web: snapshot aborted after %d points: %v", points, err)
		w.Header().Set("Ruru-Snapshot-Error", err.Error())
		return
	}
	w.Header().Set("Ruru-Snapshot-Points", strconv.FormatInt(points, 10))
}

// handleCheckpoint forces a durable checkpoint: an atomic dump of the store
// plus truncation of the WAL behind it — the operator's "bound my restart
// replay time now" button (backups too: checkpoint, then copy the data
// dir). 409 when the pipeline runs without persistence.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	info, err := s.p.DB.Checkpoint()
	switch {
	case errors.Is(err, tsdb.ErrNoPersist):
		httpError(w, http.StatusConflict, "persistence not enabled (start with -data-dir)")
	case err != nil:
		httpError(w, http.StatusInternalServerError, err.Error())
	default:
		writeJSON(w, map[string]any{
			"wal_segment":          info.WALSegment,
			"points":               info.Points,
			"wal_segments_removed": info.SegmentsRemoved,
			"took_ms":              float64(info.Took.Microseconds()) / 1e3,
		})
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// webStats is the HTTP layer's own counter section of /api/stats, reported
// alongside the flattened pipeline counters under the "web" key.
type webStats struct {
	SnapshotErrors uint64 `json:"snapshot_errors"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		ruru.Stats
		Web webStats `json:"web"`
	}{
		Stats: s.p.Stats(),
		Web:   webStats{SnapshotErrors: s.snapshotErrors.Load()},
	})
}

// handleQuery: /api/query?measurement=latency&field=total_ms&start=0&end=1e12
//
//	&window=1e9&group_by=src_city&agg=mean,median&where=src_city:Auckland
//	&resolution=auto|raw|<duration>
//
// Parameter semantics and defaults are specified in docs/API.md; the
// parsing tests in web_test.go assert the two stay in sync. The answer is
// streamed: tsdb.WriteResultsJSON appends it into a pooled buffer and hands
// the client each queryChunk bytes, the same bytes json.Encoder would write.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	query, msg := parseQuery(r.URL.Query())
	if msg != "" {
		httpError(w, http.StatusBadRequest, msg)
		return
	}
	res, err := s.p.DB.Execute(query)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	bp := queryBufs.Get().(*[]byte)
	// A write error means the client has gone; the rest is not sent.
	*bp, _ = tsdb.WriteResultsJSON(w, *bp, queryChunk, res)
	if cap(*bp) <= 2*queryChunk { // not grown by a giant group name
		queryBufs.Put(bp)
	}
}

// queryChunk is how much of an /api/query answer is buffered before it goes
// to the client: the dashboard's answer is over a megabyte.
const queryChunk = 64 << 10

var queryBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, queryChunk+4<<10)
	return &b
}}

// parseQuery maps /api/query's parameters onto a tsdb.Query, applying the
// documented defaults. A non-empty msg is the 400 response's error.
func parseQuery(q url.Values) (query tsdb.Query, msg string) {
	query = tsdb.Query{
		Measurement: q.Get("measurement"),
		Field:       q.Get("field"),
		GroupBy:     q.Get("group_by"),
	}
	if query.Measurement == "" {
		query.Measurement = "latency"
	}
	if query.Field == "" {
		query.Field = "total_ms"
	}
	var err error
	if query.Start, err = parseInt(q.Get("start"), 0); err != nil {
		return query, "bad start"
	}
	if query.End, err = parseInt(q.Get("end"), 0); err != nil || query.End <= query.Start {
		return query, "bad end"
	}
	if query.Window, err = parseInt(q.Get("window"), 0); err != nil {
		return query, "bad window"
	}
	if query.Resolution, err = parseResolution(q.Get("resolution")); err != nil {
		return query, "bad resolution"
	}
	for _, agg := range strings.Split(q.Get("agg"), ",") {
		agg = strings.TrimSpace(agg)
		if agg == "" {
			continue
		}
		if !tsdb.ValidAgg(tsdb.AggKind(agg)) {
			return query, "unknown agg " + agg
		}
		query.Aggs = append(query.Aggs, tsdb.AggKind(agg))
	}
	for _, clause := range q["where"] {
		k, v, ok := strings.Cut(clause, ":")
		if !ok {
			return query, "bad where clause"
		}
		query.Where = append(query.Where, tsdb.Tag{Key: k, Value: v})
	}
	return query, ""
}

func (s *Server) handleTags(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	key := q.Get("key")
	if key == "" {
		httpError(w, http.StatusBadRequest, "missing key")
		return
	}
	start, err := parseInt(q.Get("start"), 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad start")
		return
	}
	end, err := parseInt(q.Get("end"), 1<<62)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad end")
		return
	}
	writeJSON(w, s.p.DB.TagValues(key, start, end))
}

// Arc is the live-map feed entry.
type Arc struct {
	FromLat float64 `json:"from_lat"`
	FromLon float64 `json:"from_lon"`
	ToLat   float64 `json:"to_lat"`
	ToLon   float64 `json:"to_lon"`
	TotalNs int64   `json:"total_ns"`
	SrcCity string  `json:"src_city"`
	DstCity string  `json:"dst_city"`
	Time    int64   `json:"time"`
}

func (s *Server) handleArcs(w http.ResponseWriter, r *http.Request) {
	n, err := parseInt(r.URL.Query().Get("n"), 1000)
	if err != nil || n < 0 {
		httpError(w, http.StatusBadRequest, "bad n")
		return
	}
	recent := s.p.RecentArcs(int(n))
	out := make([]Arc, 0, len(recent))
	for i := range recent {
		e := &recent[i]
		out = append(out, Arc{
			FromLat: e.Src.Lat, FromLon: e.Src.Lon,
			ToLat: e.Dst.Lat, ToLon: e.Dst.Lon,
			TotalNs: e.TotalNs,
			SrcCity: e.Src.City, DstCity: e.Dst.City,
			Time: e.Time,
		})
	}
	writeJSON(w, out)
}

// topkEntry is one /api/topk item. Count is an overestimate of the key's
// true total by at most Err (flow/prefix: bytes; city_pair: measurements);
// Count-Err is a guaranteed lower bound. Lat is only present for city_pair.
type topkEntry struct {
	Key   string  `json:"key"`
	Count uint64  `json:"count"`
	Err   uint64  `json:"err"`
	Lat   *latAgg `json:"lat_ms,omitempty"`
}

// latAgg summarizes handshake latency (milliseconds) over the entry's
// tenure in the summary.
type latAgg struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// handleTopK: /api/topk?key=flow|prefix|city_pair&n=10 — heavy hitters from
// the bounded-memory sketch tier. 409 when the tier is not enabled.
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	if !s.p.SketchEnabled() {
		httpError(w, http.StatusConflict, "sketch tier not enabled (start with -flow-table-bytes)")
		return
	}
	q := r.URL.Query()
	n, err := parseInt(q.Get("n"), 10)
	if err != nil || n < 0 {
		httpError(w, http.StatusBadRequest, "bad n")
		return
	}
	key := q.Get("key")
	if key == "" {
		key = "flow"
	}
	var items []topkEntry
	switch key {
	case "flow":
		for _, it := range s.p.TopFlows(int(n)) {
			items = append(items, topkEntry{Key: it.Key.String(), Count: it.Count, Err: it.Err})
		}
	case "prefix":
		for _, it := range s.p.TopPrefixes(int(n)) {
			items = append(items, topkEntry{Key: it.Key.String(), Count: it.Count, Err: it.Err})
		}
	case "city_pair":
		for _, it := range s.p.TopPairs(int(n)) {
			e := topkEntry{Key: it.Key, Count: it.Count, Err: it.Err}
			if it.Lat.Count > 0 {
				e.Lat = &latAgg{
					Count: it.Lat.Count,
					Mean:  it.Lat.Sum / float64(it.Lat.Count),
					Min:   it.Lat.Min,
					Max:   it.Lat.Max,
				}
			}
			items = append(items, e)
		}
	default:
		httpError(w, http.StatusBadRequest, "bad key (want flow, prefix or city_pair)")
		return
	}
	if items == nil {
		items = []topkEntry{}
	}
	writeJSON(w, map[string]any{"key": key, "items": items})
}

func (s *Server) handleAnomalies(w http.ResponseWriter, r *http.Request) {
	events := s.p.SpikeEvents()
	events = append(events, s.p.Surge.Events()...)
	events = append(events, s.p.FloodEvents()...)
	if events == nil {
		events = []anomaly.Event{}
	}
	writeJSON(w, events)
}

// handleWrite accepts Influx line protocol (one point per line), the ingest
// API external collectors POST to — Ruru's TSDB is wire-compatible with the
// paper's InfluxDB deployment at this boundary. Returns 204 on full success
// (Influx convention) or 400 with a per-line error summary.
func (s *Server) handleWrite(w http.ResponseWriter, r *http.Request) {
	// Read one byte past the limit so an oversized body is detected rather
	// than silently truncated mid-line (which used to store a partial batch
	// and corrupt the last point).
	const writeBodyLimit = 8 << 20
	body, err := io.ReadAll(io.LimitReader(r.Body, writeBodyLimit+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read error")
		return
	}
	if len(body) > writeBodyLimit {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("body exceeds %d byte limit; split the batch", writeBodyLimit))
		return
	}
	var firstErr string
	wrote, failed := 0, 0
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := s.p.DB.WriteLine(line); err != nil {
			failed++
			if firstErr == "" {
				firstErr = fmt.Sprintf("%v in line %q", err, line)
			}
			continue
		}
		wrote++
	}
	if failed > 0 {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("wrote %d, rejected %d: %s", wrote, failed, firstErr))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// parseResolution maps the query parameter onto tsdb.Query.Resolution:
// ""/"auto" let the planner choose, "raw" forces the raw path, and
// anything else is a tier bucket width — a Go duration ("10s") or a
// nanosecond count ("1e10", "10000000000"), which must be positive.
func parseResolution(s string) (int64, error) {
	switch s {
	case "", "auto":
		return tsdb.ResolutionAuto, nil
	case "raw":
		return tsdb.ResolutionRaw, nil
	}
	n := int64(0)
	if d, err := time.ParseDuration(s); err == nil {
		n = d.Nanoseconds()
	} else if n, err = parseInt(s, 0); err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, fmt.Errorf("web: non-positive resolution %q", s)
	}
	return n, nil
}

func parseInt(s string, def int64) (int64, error) {
	if s == "" {
		return def, nil
	}
	// Accept scientific notation (1e12) for convenience.
	if strings.ContainsAny(s, "eE.") {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, err
		}
		// int64(f) is undefined for NaN and values outside int64's range
		// (the spec leaves the result implementation-defined), so a client
		// sending end=1e300 must get a 400, not a platform-dependent bound.
		// Both limits are exact float64s; NaN fails the conjunction too.
		if !(f >= -9223372036854775808.0 && f < 9223372036854775808.0) {
			return 0, fmt.Errorf("web: integer parameter %q out of range", s)
		}
		return int64(f), nil
	}
	return strconv.ParseInt(s, 10, 64)
}
