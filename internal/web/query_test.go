package web

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"ruru/internal/geo"
	"ruru/internal/ruru"
	"ruru/internal/tsdb"
)

// TestQueryAnswerBound: one unauthenticated GET used to be able to make
// Execute allocate groups × 2^20 buckets. 48 groups over 2^18 one-second
// buckets (12.6 M buckets, 3.84 GB allocated before the bound) is now a 400
// that allocates little; the dashboard's 48 × 360 still answers.
func TestQueryAnswerBound(t *testing.T) {
	w, err := geo.NewWorld(geo.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ruru.New(ruru.Config{GeoDB: w.DB(), Rollups: tsdb.DefaultRollups()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := NewServer(p)
	batch := make([]tsdb.Point, 48)
	for g := range batch {
		batch[g] = tsdb.Point{Name: "latency", Time: 1e9,
			Tags:   []tsdb.Tag{{Key: "src_city", Value: "city" + strconv.Itoa(g)}},
			Fields: []tsdb.Field{{Key: "total_ms", Value: 140}}}
	}
	if _, err := p.DB.WriteBatch(batch); err != nil {
		t.Fatal(err)
	}
	get := func(end int64) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET",
			"/api/query?start=0&window=1e9&group_by=src_city&end="+strconv.FormatInt(end, 10), nil))
		return rec
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := get(1 << 18 * 1e9)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("48 groups × 2^18 buckets: status %d, want 400", rec.Code)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("the refused query allocated %d MB", grew>>20)
	}
	var res []tsdb.SeriesResult
	if rec = get(360e9); rec.Code != http.StatusOK {
		t.Fatalf("48 groups × 360 buckets: status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || len(res) != 48 || len(res[0].Buckets) != 360 {
		t.Fatalf("48 groups × 360 buckets: %d groups, %v", len(res), err)
	}
}

// fuzzQuerySeeds are raw /api/query strings: the dashboard's shape on each
// serving path, defaults, filters, every 400, an overflowing range and an
// answer over the groups × buckets bound.
var fuzzQuerySeeds = []string{
	"",
	"end=120e9",
	"start=0&end=120e9&window=10e9&group_by=src_city&agg=mean,p95,count",
	"start=0&end=120e9&window=10e9&group_by=src_city&agg=mean,p95,count&resolution=raw",
	"start=0&end=120e9&window=10e9&group_by=src_city&agg=median,p99&resolution=1s",
	"start=0&end=120e9&window=60e9&agg=min,max,sum,count&field=external_ms&resolution=60s",
	"end=120e9&agg=count,%20mean,,&where=src_city:City%3C3%3E%26&where=dst_city:Los%20Angeles",
	"end=120e9&group_by=dst_city&field=internal_ms",
	"start=35e9&end=65e9&window=7e9&group_by=src_city",
	"start=-9e18&end=9e18",
	"start=0&end=131072e9&window=1e9&group_by=src_city",
	"end=1e12&window=1",
	"end=10&agg=bogus",
	"end=10&where=nocolon",
	"end=10&resolution=-1s",
	"start=abc&end=10",
	"end=1e300",
	"%zz&end=5&window=%",
}

// FuzzQueryParams drives handleQuery with a raw query string over the
// queryFixture store (rollups and the query cache on). Invariants: no
// panic; the status is 200 or 400; a 400 exactly when parsing or Execute
// refuses; and a 200 body is byte for byte json.Encoder's encoding of what
// Execute answers for the same parsed query — a differential test of the
// streamed encoder, its chunking included.
func FuzzQueryParams(f *testing.F) {
	for _, s := range fuzzQuerySeeds {
		f.Add(s)
	}
	s := queryFixture(f)
	f.Fuzz(func(t *testing.T, raw string) {
		v, _ := url.ParseQuery(raw) // what r.URL.Query() does
		q, msg := parseQuery(v)
		if msg == "" && expensive(q) {
			return
		}
		req := httptest.NewRequest("GET", "/api/query", nil)
		req.URL.RawQuery = raw
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if msg != "" {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("parse refused (%s) but status %d", msg, rec.Code)
			}
			return
		}
		res, err := s.p.DB.Execute(q)
		if err != nil {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("Execute refused (%v) but status %d", err, rec.Code)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d for an answer Execute gives: %s", rec.Code, rec.Body.Bytes())
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(res); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("body differs from json.Encoder's (%d vs %d bytes):\n got  %.400q\n want %.400q",
				rec.Body.Len(), want.Len(), rec.Body.Bytes(), want.Bytes())
		}
	})
}

// expensive reports whether q's answer over queryFixture could hold more
// than 2^16 buckets and still fit the 2^20 bound: legal, but a few hundred
// MB per Execute, which the fuzzer would repeat. Every fixture series has
// points at the same instants, so an answer has either no group or every
// group the grouping and filters allow; answers past the bound are refused
// before they allocate, and stay in.
func expensive(q tsdb.Query) bool {
	span := q.End - q.Start
	if span <= 0 {
		return false
	}
	window := q.Window
	if window <= 0 {
		window = span
	}
	n := span / window
	if span%window != 0 {
		n++
	}
	if n > 1<<20 {
		return false
	}
	groups := int64(1)
	if q.GroupBy == "src_city" {
		groups = int64(len(queryCities))
		for _, w := range q.Where {
			if w.Key == "src_city" {
				groups = 1
			}
		}
	}
	n *= groups
	return n > 1<<16 && n <= 1<<20
}

// TestWriteQueryFuzzCorpus regenerates testdata/fuzz/FuzzQueryParams. Run
// with RURU_UPDATE=1; skipped otherwise.
func TestWriteQueryFuzzCorpus(t *testing.T) {
	if os.Getenv("RURU_UPDATE") == "" {
		t.Skip("set RURU_UPDATE=1 to regenerate the fuzz corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzQueryParams")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range fuzzQuerySeeds {
		body := "go test fuzz v1\nstring(" + strconv.Quote(s) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, "seed-"+strconv.Itoa(i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
