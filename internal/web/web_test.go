package web

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ruru/internal/analytics"
	"ruru/internal/fed"
	"ruru/internal/geo"
	"ruru/internal/mq"
	"ruru/internal/ruru"
	"ruru/internal/tsdb"
	"ruru/internal/ws"
)

func newServer(t *testing.T) (*ruru.Pipeline, *httptest.Server) {
	t.Helper()
	w, err := geo.NewWorld(geo.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ruru.New(ruru.Config{GeoDB: w.DB()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(p))
	t.Cleanup(func() { srv.Close(); p.Close() })
	return p, srv
}

// publishEnriched runs p, publishes es on the enriched topic as the
// enricher publishes them (the one way measurements reach the sink), then
// cancels Run and waits for it. Run drains the sink before it returns, so
// by then every measurement's TSDB point, arc and detector offer is in
// place; the helper fails the test if the ledger lost any of them to a
// subscription drop, a decode error or the drain deadline.
func publishEnriched(t testing.TB, p *ruru.Pipeline, es ...analytics.Enriched) {
	t.Helper()
	before := p.Stats()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(ctx)
	}()
	for i := range es {
		p.Bus.Publish(mq.Message{Topic: ruru.TopicEnriched, Payload: analytics.MarshalEnriched(nil, &es[i])})
	}
	cancel()
	<-done
	st := p.Stats()
	if st.SinkDrop != before.SinkDrop || st.SinkDecodeErrors != before.SinkDecodeErrors ||
		st.ShutdownDrop != before.ShutdownDrop {
		t.Fatalf("sink lost measurements: drop %d→%d, decode errors %d→%d, shutdown drop %d→%d",
			before.SinkDrop, st.SinkDrop, before.SinkDecodeErrors, st.SinkDecodeErrors,
			before.ShutdownDrop, st.ShutdownDrop)
	}
	if n := st.Accounted() - before.Accounted(); n != uint64(len(es)) {
		t.Fatalf("sink accounted %d of %d published", n, len(es))
	}
}

// feedSamples publishes n Auckland→Los Angeles measurements, one a second
// from time 0, with total latency cycling through 140..159 ms.
func feedSamples(t testing.TB, p *ruru.Pipeline, n int) {
	t.Helper()
	feedSamplesFrom(t, p, 0, n)
}

// feedSamplesFrom is feedSamples with the first sample at from seconds.
func feedSamplesFrom(t testing.TB, p *ruru.Pipeline, from, n int) {
	t.Helper()
	es := make([]analytics.Enriched, n)
	for i := range es {
		total := int64(140e6 + i%20*1e6)
		es[i] = analytics.Enriched{
			Time: int64(from+i) * 1e9, TotalNs: total, InternalNs: 15e6, ExternalNs: total - 15e6,
			Src: analytics.Endpoint{City: "Auckland", CountryCode: "NZ", Lat: -36.85, Lon: 174.76, ASN: 64000},
			Dst: analytics.Endpoint{City: "Los Angeles", CountryCode: "US", Lat: 34.05, Lon: -118.24, ASN: 64004},
		}
	}
	publishEnriched(t, p, es...)
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestStatsEndpoint(t *testing.T) {
	p, srv := newServer(t)
	feedSamples(t, p, 10)
	var st map[string]any
	getJSON(t, srv.URL+"/api/stats", &st)
	if st["DBPoints"].(float64) != 10 {
		t.Fatalf("stats: %v", st)
	}
	if qc, ok := st["QueryCache"].(map[string]any); !ok || qc["enabled"] != false {
		t.Fatalf("QueryCache = %v, want a block reporting enabled: false without QueryCacheBytes", st["QueryCache"])
	}
}

// TestStatsContinuousRTTFields pins the /api/stats JSON surface for the
// continuous-RTT trackers: the stored-sample counters and both trackers'
// counter blocks must be present (zero-valued with the trackers off) so
// dashboards and the federation aggregator can rely on the shape without
// probing the configuration.
func TestStatsContinuousRTTFields(t *testing.T) {
	_, srv := newServer(t)
	var st map[string]any
	getJSON(t, srv.URL+"/api/stats", &st)
	for _, key := range []string{"TSSamples", "SeqSamples", "LossPoints"} {
		v, ok := st[key]
		if !ok {
			t.Errorf("/api/stats missing %q", key)
			continue
		}
		if n, ok := v.(float64); !ok || n != 0 {
			t.Errorf("%s = %v, want 0 with trackers off", key, v)
		}
	}
	cases := []struct {
		block  string
		fields []string
	}{
		{"TSRTT", []string{"Packets", "Inserted", "Samples", "Unmatched", "Expired", "TableFull", "Occupancy"}},
		{"Seq", []string{"Packets", "Inserted", "Samples", "OneDirSamples", "Unmatched", "Retrans", "RTO", "DupACK", "Expired", "TableFull", "Occupancy"}},
	}
	for _, tc := range cases {
		blk, ok := st[tc.block].(map[string]any)
		if !ok {
			t.Errorf("/api/stats missing tracker block %q (got %v)", tc.block, st[tc.block])
			continue
		}
		for _, f := range tc.fields {
			if _, ok := blk[f]; !ok {
				t.Errorf("/api/stats %s missing field %q", tc.block, f)
			}
		}
	}
}

func TestQueryEndpoint(t *testing.T) {
	p, srv := newServer(t)
	feedSamples(t, p, 100)
	var res []tsdb.SeriesResult
	getJSON(t, srv.URL+"/api/query?measurement=latency&field=total_ms&start=0&end=1e12&agg=count,mean,median&group_by=src_city", &res)
	if len(res) != 1 || res[0].Group != "Auckland" {
		t.Fatalf("res: %+v", res)
	}
	b := res[0].Buckets[0]
	if b.Count != 100 {
		t.Fatalf("count = %d", b.Count)
	}
	if b.Aggs[tsdb.AggMean] < 140 || b.Aggs[tsdb.AggMean] > 160 {
		t.Fatalf("mean = %v", b.Aggs[tsdb.AggMean])
	}
	// Filtered query.
	getJSON(t, srv.URL+"/api/query?start=0&end=1e12&agg=count&where=src_city:Auckland", &res)
	if res[0].Buckets[0].Count != 100 {
		t.Fatalf("filtered: %+v", res)
	}
	getJSON(t, srv.URL+"/api/query?start=0&end=1e12&agg=count&where=src_city:Nowhere", &res)
	if len(res) != 0 {
		t.Fatalf("bogus filter matched: %+v", res)
	}
}

// TestQueryParamParsing is the table-driven contract for handleQuery's
// parameter parsing: accepted forms, applied defaults, and rejections.
// The semantics asserted here are the ones documented in docs/API.md —
// change one, change both.
func TestQueryParamParsing(t *testing.T) {
	p, srv := newServer(t)
	feedSamples(t, p, 100) // times 0..99s, src_city=Auckland, total_ms≈140-160

	cases := []struct {
		name   string
		query  string
		status int
		// check runs against the decoded result for 200 responses.
		check func(t *testing.T, res []tsdb.SeriesResult)
	}{
		{"missing end rejected (end defaults to 0, <= start)", "", http.StatusBadRequest, nil},
		{"inverted range rejected", "start=10&end=5", http.StatusBadRequest, nil},
		{"equal start/end rejected", "start=10&end=10", http.StatusBadRequest, nil},
		{"unparseable start", "start=abc&end=10", http.StatusBadRequest, nil},
		{"unparseable end", "end=abc", http.StatusBadRequest, nil},
		{"end beyond float range rejected", "end=1e300", http.StatusBadRequest, nil},
		{"end beyond int64 rejected", "end=1e19", http.StatusBadRequest, nil},
		{"start below int64 rejected", "start=-1e300&end=10", http.StatusBadRequest, nil},
		{"unparseable window", "end=10&window=abc", http.StatusBadRequest, nil},
		{"unknown agg", "end=10&agg=bogus", http.StatusBadRequest, nil},
		{"where without colon", "end=10&where=nocolon", http.StatusBadRequest, nil},
		{"bad resolution", "end=10&resolution=abc", http.StatusBadRequest, nil},
		{"zero resolution", "end=10&resolution=0s", http.StatusBadRequest, nil},
		{"negative resolution", "end=10&resolution=-10s", http.StatusBadRequest, nil},
		{"resolution names no tier", "end=1e12&resolution=10s", http.StatusBadRequest, nil},
		{"scientific-notation bounds accepted", "start=0&end=1e12", http.StatusOK, nil},
		{"defaults: measurement latency, field total_ms, window whole range, agg mean",
			"end=1e12", http.StatusOK,
			func(t *testing.T, res []tsdb.SeriesResult) {
				if len(res) != 1 || len(res[0].Buckets) != 1 {
					t.Fatalf("res = %+v", res)
				}
				b := res[0].Buckets[0]
				if b.Count != 100 {
					t.Fatalf("default measurement/field missed the data: %+v", b)
				}
				if len(b.Aggs) != 1 || b.Aggs[tsdb.AggMean] < 140 || b.Aggs[tsdb.AggMean] > 160 {
					t.Fatalf("default agg: %+v", b.Aggs)
				}
			}},
		{"start defaults to 0", "end=50e9&agg=count", http.StatusOK,
			func(t *testing.T, res []tsdb.SeriesResult) {
				if res[0].Buckets[0].Count != 50 {
					t.Fatalf("count = %d, want the first 50 samples", res[0].Buckets[0].Count)
				}
			}},
		{"window splits the range", "end=100e9&window=10e9&agg=count", http.StatusOK,
			func(t *testing.T, res []tsdb.SeriesResult) {
				if len(res[0].Buckets) != 10 || res[0].Buckets[0].Count != 10 {
					t.Fatalf("buckets = %+v", res[0].Buckets)
				}
			}},
		{"agg list with spaces and empties", "end=1e12&agg=count,,%20mean", http.StatusOK,
			func(t *testing.T, res []tsdb.SeriesResult) {
				if len(res[0].Buckets[0].Aggs) != 2 {
					t.Fatalf("aggs = %+v", res[0].Buckets[0].Aggs)
				}
			}},
		{"resolution raw accepted without rollups", "end=1e12&resolution=raw", http.StatusOK,
			func(t *testing.T, res []tsdb.SeriesResult) {
				if res[0].Tier != 0 {
					t.Fatalf("tier = %d", res[0].Tier)
				}
			}},
		{"resolution auto accepted without rollups", "end=1e12&resolution=auto", http.StatusOK, nil},
		{"repeated where clauses ANDed", "end=1e12&agg=count&where=src_city:Auckland&where=dst_city:Nowhere",
			http.StatusOK,
			func(t *testing.T, res []tsdb.SeriesResult) {
				if len(res) != 0 {
					t.Fatalf("conflicting filters matched: %+v", res)
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			u := srv.URL + "/api/query?" + c.query
			if c.status != http.StatusOK {
				resp := getJSON(t, u, nil)
				if resp.StatusCode != c.status {
					t.Fatalf("status %d, want %d", resp.StatusCode, c.status)
				}
				return
			}
			var res []tsdb.SeriesResult
			if resp := getJSON(t, u, &res); resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			if c.check != nil {
				c.check(t, res)
			}
		})
	}
}

// TestQueryEmptyBucketsSerializeNull pins the docs/API.md claim that an
// empty bucket's value aggregations arrive as JSON null: tsdb represents
// them as NaN, which encoding/json cannot emit — without Bucket's custom
// marshalling the whole response would silently truncate to an empty 200.
func TestQueryEmptyBucketsSerializeNull(t *testing.T) {
	p, srv := newServer(t)
	feedSamples(t, p, 5) // samples at 0..4s; buckets past 5s are empty
	resp, err := http.Get(srv.URL + "/api/query?end=20e9&window=10e9&agg=count,mean")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := new(strings.Builder)
	if _, err := io.Copy(body, resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || body.Len() == 0 {
		t.Fatalf("status %d, %d-byte body", resp.StatusCode, body.Len())
	}
	if !strings.Contains(body.String(), `"mean":null`) {
		t.Fatalf("empty bucket's mean not null: %s", body.String())
	}
	var res []tsdb.SeriesResult
	if err := json.Unmarshal([]byte(body.String()), &res); err != nil {
		t.Fatalf("response is not valid JSON: %v", err)
	}
	if res[0].Buckets[1].Count != 0 || res[0].Buckets[1].Aggs[tsdb.AggCount] != 0 {
		t.Fatalf("empty bucket: %+v", res[0].Buckets[1])
	}
}

// TestQueryResolutionParam runs the resolution parameter against a
// rollup-enabled pipeline: auto planning, tier reporting, forcing a tier,
// and forcing raw.
func TestQueryResolutionParam(t *testing.T) {
	w, err := geo.NewWorld(geo.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ruru.New(ruru.Config{GeoDB: w.DB(), Rollups: tsdb.DefaultRollups()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(p))
	t.Cleanup(func() { srv.Close(); p.Close() })
	feedSamples(t, p, 100)

	var res []tsdb.SeriesResult
	base := srv.URL + "/api/query?start=0&end=100e9&window=10e9&agg=count,p95"
	getJSON(t, base, &res)
	if len(res) != 1 || res[0].Tier != 10e9 {
		t.Fatalf("auto: %+v", res)
	}
	getJSON(t, base+"&resolution=1s", &res)
	if res[0].Tier != 1e9 {
		t.Fatalf("forced 1s: tier = %d", res[0].Tier)
	}
	getJSON(t, base+"&resolution=raw", &res)
	if res[0].Tier != 0 {
		t.Fatalf("forced raw: tier = %d", res[0].Tier)
	}
	if c := res[0].Buckets[0].Count; c != 10 {
		t.Fatalf("raw count = %d", c)
	}
	// A width that names no tier is a 400 (ErrBadResolution).
	if resp := getJSON(t, base+"&resolution=5s", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown tier width: status %d", resp.StatusCode)
	}
}

// TestQueryRawBehindHorizon: on a pipeline with a raw retention horizon,
// a resolution=raw query that starts behind it is a 400 whose error names
// the horizon; one that starts inside it is answered.
func TestQueryRawBehindHorizon(t *testing.T) {
	w, err := geo.NewWorld(geo.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ruru.New(ruru.Config{GeoDB: w.DB(), Retention: 30e9})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(p))
	t.Cleanup(func() { srv.Close(); p.Close() })
	feedSamples(t, p, 100) // newest point at 99 s: the horizon is at 69 s

	var body map[string]string
	resp := getJSON(t, srv.URL+"/api/query?start=0&end=100e9&agg=count&resolution=raw", &body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body["error"], "30s") {
		t.Fatalf("raw query behind the horizon: status %d, body %v", resp.StatusCode, body)
	}
	var res []tsdb.SeriesResult
	resp = getJSON(t, srv.URL+"/api/query?start=70e9&end=100e9&agg=count&resolution=raw", &res)
	if resp.StatusCode != http.StatusOK || len(res) != 1 || res[0].Buckets[0].Count != 30 {
		t.Fatalf("raw query inside the horizon: status %d, %+v", resp.StatusCode, res)
	}
}

// TestWriteAheadOfHorizon: a /write point stamped further ahead of the
// live stream than the retention horizon is a 400, so it cannot move the
// store's clock: raw history stays, and later sink writes are still
// stored rather than dropped as too old.
func TestWriteAheadOfHorizon(t *testing.T) {
	w, err := geo.NewWorld(geo.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ruru.New(ruru.Config{GeoDB: w.DB(), Retention: 100e9})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(p))
	t.Cleanup(func() { srv.Close(); p.Close() })
	feedSamples(t, p, 100) // newest point at 99 s

	resp, err := http.Post(srv.URL+"/write", "text/plain",
		strings.NewReader("latency,src_city=Sydney,dst_city=Tokyo total_ms=1 10800000000000\n"))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "1m40s") {
		t.Fatalf("point 3 h ahead: status %d, body %q", resp.StatusCode, msg)
	}
	feedSamplesFrom(t, p, 100, 10)
	if st := p.Stats(); st.DBPoints != 110 || st.DBDropped != 0 {
		t.Fatalf("after the refused point: DBPoints %d, DBDropped %d, want 110 and 0", st.DBPoints, st.DBDropped)
	}
	var res []tsdb.SeriesResult
	getJSON(t, srv.URL+"/api/query?start=10e9&end=110e9&agg=count&resolution=raw", &res)
	if len(res) != 1 || res[0].Buckets[0].Count != 100 {
		t.Fatalf("raw history after the refused point: %+v", res)
	}
}

// TestSinkBatchKeepsInOrderPoints: 100 sink measurements 1 s apart into a
// store with a 30 s raw horizon are all stored. One sink batch spans more
// than the horizon; judged by its newest point it would drop its own older
// points, but written one at a time none of them is behind the horizon.
func TestSinkBatchKeepsInOrderPoints(t *testing.T) {
	w, err := geo.NewWorld(geo.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ruru.New(ruru.Config{GeoDB: w.DB(), Retention: 30e9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	feedSamples(t, p, 100)
	if st := p.Stats(); st.DBPoints != 100 || st.DBDropped != 0 {
		t.Fatalf("DBPoints %d, DBDropped %d, want 100 and 0", st.DBPoints, st.DBDropped)
	}
}

func TestTagsEndpoint(t *testing.T) {
	p, srv := newServer(t)
	feedSamples(t, p, 5)
	var tags []string
	getJSON(t, srv.URL+"/api/tags?key=src_city", &tags)
	if len(tags) != 1 || tags[0] != "Auckland" {
		t.Fatalf("tags: %v", tags)
	}
	resp := getJSON(t, srv.URL+"/api/tags", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing key: %d", resp.StatusCode)
	}
}

func TestArcsEndpoint(t *testing.T) {
	p, srv := newServer(t)
	feedSamples(t, p, 50)
	var arcs []Arc
	getJSON(t, srv.URL+"/api/arcs?n=0", &arcs) // 0 = every retained arc
	if len(arcs) != 50 {
		t.Fatalf("n=0: %d arcs, want all 50", len(arcs))
	}
	arcs = nil
	getJSON(t, srv.URL+"/api/arcs?n=10", &arcs)
	if len(arcs) != 10 {
		t.Fatalf("%d arcs", len(arcs))
	}
	a := arcs[0]
	if a.SrcCity != "Auckland" || a.DstCity != "Los Angeles" {
		t.Fatalf("arc: %+v", a)
	}
	if a.FromLat > -30 || a.ToLat < 30 {
		t.Fatalf("coordinates: %+v", a)
	}
}

func TestAnomaliesEndpoint(t *testing.T) {
	p, srv := newServer(t)
	feedSamples(t, p, 500)
	// Inject a glitch through the pipeline.
	publishEnriched(t, p, analytics.Enriched{
		Time: 600e9, TotalNs: 4145e6,
		Src: analytics.Endpoint{City: "Auckland"},
		Dst: analytics.Endpoint{City: "Los Angeles"},
	})
	var events []map[string]any
	getJSON(t, srv.URL+"/api/anomalies", &events)
	found := false
	for _, ev := range events {
		if ev["Kind"] == "latency_spike" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no spike event in %v", events)
	}
}

func TestWebSocketLiveFeed(t *testing.T) {
	p, srv := newServer(t)
	url := "ws://" + strings.TrimPrefix(srv.URL, "http://") + "/ws"
	c, err := ws.Dial(url)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for p.Hub.LiveClients() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("client never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	feedSamples(t, p, 3)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	// The live feed sends JSON arrays (the sink coalesces measurements
	// into batched frames).
	received := 0
	for received < 3 {
		op, msg, err := c.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if op != ws.OpText {
			t.Fatalf("opcode %v", op)
		}
		var batch []analytics.Enriched
		if err := json.Unmarshal(msg, &batch); err != nil {
			t.Fatalf("bad JSON: %v (%s)", err, msg)
		}
		for _, e := range batch {
			if e.Src.City != "Auckland" {
				t.Fatalf("payload: %+v", e)
			}
			received++
		}
	}
}

func TestWriteEndpointLineProtocol(t *testing.T) {
	p, srv := newServer(t)
	body := strings.NewReader(
		"latency,src_city=Sydney,dst_city=Tokyo total_ms=123.5 1000000000\n" +
			"# a comment\n" +
			"latency,src_city=Sydney,dst_city=Tokyo total_ms=150 2000000000\n")
	resp, err := http.Post(srv.URL+"/write", "text/plain", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var res []tsdb.SeriesResult
	getJSON(t, srv.URL+"/api/query?start=0&end=1e10&agg=count,max&where=src_city:Sydney", &res)
	if len(res) != 1 || res[0].Buckets[0].Count != 2 || res[0].Buckets[0].Aggs[tsdb.AggMax] != 150 {
		t.Fatalf("ingested data wrong: %+v", res)
	}
	_ = p
	// Malformed lines are rejected with a 400 and error detail.
	resp, err = http.Post(srv.URL+"/write", "text/plain", strings.NewReader("garbage without fields"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage status = %d", resp.StatusCode)
	}
	// A repeated field key is malformed (a point holds one value per field):
	// that line is rejected, the rest of the body is stored.
	resp, err = http.Post(srv.URL+"/write", "text/plain", strings.NewReader(
		"latency,src_city=Perth,dst_city=Tokyo total_ms=1 3000000000\n"+
			"latency,src_city=Perth,dst_city=Tokyo total_ms=2,total_ms=3 4000000000\n"+
			"latency,src_city=Perth,dst_city=Tokyo total_ms=4 5000000000\n"))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "wrote 2, rejected 1") {
		t.Fatalf("duplicate field: status %d, body %q", resp.StatusCode, msg)
	}
	getJSON(t, srv.URL+"/api/query?start=0&end=1e10&agg=count,sum&where=src_city:Perth", &res)
	if len(res) != 1 || res[0].Buckets[0].Count != 2 || res[0].Buckets[0].Aggs[tsdb.AggSum] != 5 {
		t.Fatalf("duplicate-field line corrupted the series: %+v", res)
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	p, srv := newServer(t)
	feedSamples(t, p, 25)
	resp, err := http.Get(srv.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := make([]byte, 1<<20)
	n, _ := resp.Body.Read(body)
	lines := strings.Count(string(body[:n]), "\n")
	if lines != 25 {
		t.Fatalf("snapshot has %d lines, want 25", lines)
	}
	// The snapshot must round-trip through /write on a fresh pipeline.
	p2, srv2 := newServer(t)
	resp2, err := http.Post(srv2.URL+"/write", "text/plain", strings.NewReader(string(body[:n])))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNoContent {
		t.Fatalf("restore status %d", resp2.StatusCode)
	}
	if w, _ := p2.DB.WriteStats(); w != 25 {
		t.Fatalf("restored %d points", w)
	}
}

func TestCheckpointEndpoint(t *testing.T) {
	// Without persistence the endpoint must refuse, not 500 or pretend.
	_, srv := newServer(t)
	resp, err := http.Post(srv.URL+"/api/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("checkpoint without -data-dir: status %d, want 409", resp.StatusCode)
	}

	// With persistence: checkpoint responds with the cut, and a restarted
	// pipeline on the same directory serves the same points.
	w, err := geo.NewWorld(geo.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := ruru.Config{GeoDB: w.DB(),
		Persist: tsdb.PersistOptions{Dir: dir, Fsync: tsdb.FsyncOff, CheckpointEvery: -1}}
	p, err := ruru.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(NewServer(p))
	feedSamples(t, p, 40)
	resp, err = http.Post(srv2.URL+"/api/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var ck struct {
		WALSegment uint64 `json:"wal_segment"`
		Points     int64  `json:"points"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ck); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ck.Points != 40 || ck.WALSegment == 0 {
		t.Fatalf("checkpoint: status %d, %+v", resp.StatusCode, ck)
	}
	feedSamples(t, p, 10) // WAL tail past the checkpoint
	srv2.Close()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := ruru.New(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.Close()
	st := p2.Stats()
	if !st.Persist.Enabled || st.Persist.RestoredPoints != 40 || st.Persist.WALReplayedPoints != 10 {
		t.Fatalf("restart recovery = %+v, want 40 restored + 10 replayed", st.Persist)
	}
	if st.DBPoints != 50 {
		t.Fatalf("restart DBPoints = %d, want 50", st.DBPoints)
	}
}

func TestParseIntForms(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"", 7, true}, {"123", 123, true}, {"1e9", 1e9, true},
		{"2.5e9", 25e8, true}, {"9e18", 9e18, true}, {"abc", 0, false},
		// int64(f) is implementation-defined for NaN and floats outside
		// int64's range, so these must be rejected, not silently mapped
		// to a platform-dependent bound.
		{"1e19", 0, false}, {"-1e19", 0, false},
		{"1e300", 0, false}, {"-1e300", 0, false},
		{"9.3e18", 0, false}, {"NaN", 0, false},
	}
	for _, c := range cases {
		got, err := parseInt(c.in, 7)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("parseInt(%q) = %d, %v", c.in, got, err)
		}
	}
}

func BenchmarkQueryEndpoint(b *testing.B) {
	w, _ := geo.NewWorld(geo.WorldOptions{})
	p, _ := ruru.New(ruru.Config{GeoDB: w.DB()})
	defer p.Close()
	e := analytics.Enriched{
		Src: analytics.Endpoint{City: "Auckland"},
		Dst: analytics.Endpoint{City: "Los Angeles"},
	}
	// The query alone is timed, so the points go straight into the store:
	// 50 000 published messages would overflow the sink subscription.
	pts := make([]tsdb.Point, 50000)
	for i := range pts {
		e.Time = int64(i) * 1e7
		e.TotalNs = int64(140e6 + i%50*1e6)
		pts[i] = analytics.LatencyPoint(&e)
	}
	if _, err := p.DB.WriteBatch(pts); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	url := srv.URL + "/api/query?start=0&end=1e12&window=1e10&agg=mean,median,p99&group_by=src_city"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
}

// TestFederationQueryAndStats pins the federation surface of the HTTP API:
// an aggregator pipeline serves probe-tagged series through /api/query
// (filter and group-by on the probe tag — the cross-probe merge semantics)
// and reports per-probe liveness/lag/dedup counters in /api/stats.
func TestFederationQueryAndStats(t *testing.T) {
	w, err := geo.NewWorld(geo.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ruru.New(ruru.Config{
		GeoDB:    w.DB(),
		Federate: fed.AggConfig{Listen: "127.0.0.1:0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(p))
	t.Cleanup(func() { srv.Close(); p.Close() })

	// Two probes stream measurements into the aggregator.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const perProbe = 120
	for _, id := range []string{"akl-1", "lax-1"} {
		bus := mq.NewBus()
		defer bus.Close()
		pr, err := fed.NewProbe(fed.ProbeConfig{
			Addr: p.Agg.Addr().String(), ID: id, SpoolDir: t.TempDir(),
		}, bus)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pr.Close() })
		go pr.Run(ctx)
		go func() {
			e := analytics.Enriched{
				Src: analytics.Endpoint{City: "Auckland", CountryCode: "NZ"},
				Dst: analytics.Endpoint{City: "Los Angeles", CountryCode: "US"},
			}
			for i := 0; i < perProbe; i++ {
				e.Time = int64(i+1) * 1e6
				e.TotalNs = 140e6
				bus.Publish(mq.Message{Topic: analytics.TopicEnriched,
					Payload: analytics.MarshalEnriched(nil, &e)})
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		written, _ := p.DB.WriteStats()
		if written == 2*perProbe {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d/%d points applied", written, 2*perProbe)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// group_by=probe splits the fleet into one series per probe.
	var res []tsdb.SeriesResult
	getJSON(t, srv.URL+"/api/query?start=0&end=1e12&agg=count&group_by=probe", &res)
	if len(res) != 2 || res[0].Group != "akl-1" || res[1].Group != "lax-1" {
		t.Fatalf("group_by=probe: %+v", res)
	}
	for _, sr := range res {
		if sr.Buckets[0].Count != perProbe {
			t.Fatalf("group %s count = %d, want %d", sr.Group, sr.Buckets[0].Count, perProbe)
		}
	}
	// where=probe:<id> filters to one probe; the unfiltered query merges.
	getJSON(t, srv.URL+"/api/query?start=0&end=1e12&agg=count&where=probe:akl-1", &res)
	if len(res) != 1 || res[0].Buckets[0].Count != perProbe {
		t.Fatalf("where=probe:akl-1: %+v", res)
	}
	getJSON(t, srv.URL+"/api/query?start=0&end=1e12&agg=count", &res)
	if len(res) != 1 || res[0].Buckets[0].Count != 2*perProbe {
		t.Fatalf("cross-probe merge: %+v", res)
	}
	// /api/tags serves the probe tag for dashboard pickers.
	var vals []string
	getJSON(t, srv.URL+"/api/tags?key=probe", &vals)
	if len(vals) != 2 || vals[0] != "akl-1" || vals[1] != "lax-1" {
		t.Fatalf("tags probe: %v", vals)
	}

	// /api/stats carries per-probe liveness, lag and dedup counters.
	var st struct {
		Fed struct {
			Enabled bool
			Points  uint64
			Probes  []struct {
				ID        string
				Connected bool
				LastSeq   uint64
				Points    uint64
				LagNs     int64
			}
		}
	}
	getJSON(t, srv.URL+"/api/stats", &st)
	if !st.Fed.Enabled || st.Fed.Points != 2*perProbe || len(st.Fed.Probes) != 2 {
		t.Fatalf("fed stats: %+v", st.Fed)
	}
	for _, ps := range st.Fed.Probes {
		if !ps.Connected || ps.LastSeq == 0 || ps.Points != perProbe || ps.LagNs < 0 {
			t.Fatalf("probe stats: %+v", ps)
		}
	}
}

// TestWriteBodyLimit pins handleWrite's oversize-body contract: a batch
// over the 8MiB limit is rejected whole with a 413 — the old LimitReader
// silently truncated the body mid-line, storing a partial batch whose last
// point was parsed from half a line.
func TestWriteBodyLimit(t *testing.T) {
	p, srv := newServer(t)

	// A body of valid lines that crosses the limit: every line would parse,
	// so only the size check can reject it — proving nothing was ingested.
	line := "latency,src_city=Sydney,dst_city=Tokyo total_ms=123.5 1000000000\n"
	lines := (8<<20)/len(line) + 2
	body := strings.Repeat(line, lines)
	resp, err := http.Post(srv.URL+"/write", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%s)", resp.StatusCode, msg)
	}
	if !strings.Contains(string(msg), "limit") {
		t.Fatalf("413 body gives no hint: %s", msg)
	}
	if w, _ := p.DB.WriteStats(); w != 0 {
		t.Fatalf("oversized batch partially ingested: %d points", w)
	}

	// At the limit exactly (padded with comments) the batch goes through.
	pad := 8<<20 - len(line)
	ok := line + "# " + strings.Repeat("x", pad-3) + "\n"
	if len(ok) != 8<<20 {
		t.Fatalf("test bug: body is %d bytes", len(ok))
	}
	resp, err = http.Post(srv.URL+"/write", "text/plain", strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("at-limit status = %d, want 204", resp.StatusCode)
	}
	if w, _ := p.DB.WriteStats(); w != 1 {
		t.Fatalf("at-limit batch stored %d points, want 1", w)
	}
}

// brokenWriter is a ResponseWriter whose client has gone away: every body
// write fails. Header/WriteHeader behave normally so the handler's trailer
// bookkeeping is exercised.
type brokenWriter struct{ hdr http.Header }

func (w *brokenWriter) Header() http.Header       { return w.hdr }
func (w *brokenWriter) WriteHeader(int)           {}
func (w *brokenWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestSnapshotCompletionReporting pins the fix for the dropped
// DB.Snapshot results: a successful dump announces its point count in the
// Ruru-Snapshot-Points trailer, and a failed one (client disconnect
// mid-stream) bumps the web.snapshot_errors counter in /api/stats instead
// of vanishing — previously a truncated dump was indistinguishable from a
// complete one.
func TestSnapshotCompletionReporting(t *testing.T) {
	p, srv := newServer(t)
	feedSamples(t, p, 25)

	resp, err := http.Get(srv.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Trailer.Get("Ruru-Snapshot-Points"); got != "25" {
		t.Fatalf("Ruru-Snapshot-Points trailer = %q, want \"25\" (trailers: %v)", got, resp.Trailer)
	}
	if resp.Trailer.Get("Ruru-Snapshot-Error") != "" {
		t.Fatalf("error trailer on a successful dump: %v", resp.Trailer)
	}
	if lines := strings.Count(string(body), "\n"); lines != 25 {
		t.Fatalf("snapshot has %d lines", lines)
	}

	// Abort the stream: the handler must count the failure.
	s := NewServer(p)
	req := httptest.NewRequest("GET", "/snapshot", nil)
	bw := &brokenWriter{hdr: make(http.Header)}
	s.ServeHTTP(bw, req)
	if got := bw.hdr.Get("Ruru-Snapshot-Error"); got == "" {
		t.Fatal("aborted dump set no Ruru-Snapshot-Error trailer")
	}
	var st struct {
		Web struct {
			SnapshotErrors uint64 `json:"snapshot_errors"`
		} `json:"web"`
	}
	// The broken request went through a second Server instance, so query
	// its stats directly rather than via srv (whose counter is still 0).
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/api/stats", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Web.SnapshotErrors != 1 {
		t.Fatalf("web.snapshot_errors = %d, want 1", st.Web.SnapshotErrors)
	}

	// And the original server — no failures — reports zero.
	var st2 struct {
		Web struct {
			SnapshotErrors uint64 `json:"snapshot_errors"`
		} `json:"web"`
	}
	getJSON(t, srv.URL+"/api/stats", &st2)
	if st2.Web.SnapshotErrors != 0 {
		t.Fatalf("untouched server reports %d snapshot errors", st2.Web.SnapshotErrors)
	}
}
