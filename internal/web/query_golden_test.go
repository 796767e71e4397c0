package web

// The parent-pinned /api/query bodies: a fixed store served through the
// handler, every response's status, Content-Type and body recorded byte for
// byte. testdata/parent_query_bodies.txt was written by the code from BEFORE
// the response was appended and streamed (encoding/json over Bucket's
// pointer-map MarshalJSON), with RURU_UPDATE_PARENT_DIGEST=1 on a checkout
// of that commit — this file uses only API that commit had, so it can be
// copied there (see docs/TESTING.md). Do not regenerate it with the code
// under test.

import (
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ruru/internal/geo"
	"ruru/internal/ruru"
	"ruru/internal/tsdb"
)

// queryCities are the fixture's src_city values: plain names, and names
// that take each of the JSON string escapes.
var queryCities = []string{
	"Auckland", "Wellington", "Sydney", "Tokyo", "São Paulo", "Zürich", "City<3>&", `Q"uote\`,
	"tab\there", "\x01ctl\x7f", "line\xe2\x80\xa8sep", "bad\xffutf8", "", "日本", "Los Angeles", "a/b",
}

// queryFixture is a pipeline with the default rollup ladder and the query
// cache on, holding latency points for every queryCities entry at the same
// seconds 0–119, except a gap at 40–59 s that leaves empty buckets. The
// values take every float form encoding/json writes: fractions, integers,
// exponents below 1e-6, and huge values.
func queryFixture(tb testing.TB) *Server {
	tb.Helper()
	w, err := geo.NewWorld(geo.WorldOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := ruru.New(ruru.Config{GeoDB: w.DB(), Rollups: tsdb.DefaultRollups(), QueryCacheBytes: 1 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { p.Close() })
	var batch []tsdb.Point
	for s := int64(0); s < 120; s++ {
		if s >= 40 && s < 60 {
			continue
		}
		for c, city := range queryCities {
			batch = append(batch, tsdb.Point{
				Name: "latency",
				Tags: []tsdb.Tag{{Key: "src_city", Value: city}, {Key: "dst_city", Value: "Los Angeles"}},
				Fields: []tsdb.Field{
					{Key: "total_ms", Value: 100 + float64(c)*1.37 + math.Mod(float64(s)*7.31, 50)},
					{Key: "internal_ms", Value: float64((s+int64(c))%5) * 3e-7},
					{Key: "external_ms", Value: float64(s%3+1) * 1e20},
				},
				Time: s * 1e9,
			})
		}
	}
	if n, err := p.DB.WriteBatch(batch); err != nil || n != len(batch) {
		tb.Fatalf("fixture: wrote %d of %d points: %v", n, len(batch), err)
	}
	return NewServer(p)
}

// goldenQueries are answered the same by the parent and by the code under
// test: tier-served, cached, raw, filtered, empty, and refused.
var goldenQueries = []string{
	"start=0&end=120e9&window=20e9&group_by=src_city&agg=mean,p95,count",
	"start=0&end=120e9&window=20e9&group_by=src_city&agg=mean,p95,count", // the cached repeat
	"start=0&end=120e9&window=30e9&group_by=src_city&agg=min,max,mean,median,p95,p99,count,sum&resolution=raw",
	"start=0&end=120e9&window=20e9&field=internal_ms&agg=mean,min,max,sum&group_by=src_city&resolution=1s",
	"start=0&end=120e9&field=external_ms&agg=sum,mean,count",
	"end=120e9&group_by=dst_city&where=src_city:City%3C3%3E%26",
	"start=30e9&end=70e9&window=5e9&agg=p99,count&where=src_city:Auckland",
	"start=500e9&end=600e9&window=10e9&group_by=src_city",
	"end=120e9&where=nocolon",
	"end=10&agg=bogus",
	"end=120e9&window=1e9&resolution=7s",
}

func queryBodies(tb testing.TB) string {
	s := queryFixture(tb)
	var b strings.Builder
	for _, q := range goldenQueries {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/api/query?"+q, nil))
		fmt.Fprintf(&b, "GET /api/query?%s\n%d %s\n%s", q, rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
	}
	return b.String()
}

// TestQueryBodiesMatchParent requires every recorded response back byte for
// byte, trailing newlines included.
func TestQueryBodiesMatchParent(t *testing.T) {
	path := filepath.Join("testdata", "parent_query_bodies.txt")
	got := queryBodies(t)
	if os.Getenv("RURU_UPDATE_PARENT_DIGEST") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("parent bodies missing (written on the parent commit with RURU_UPDATE_PARENT_DIGEST=1): %v", err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("line %d differs from the parent's:\n got  %.300q\n want %.300q", i+1, g[i], w[i])
		}
	}
	t.Fatalf("%d lines, the parent wrote %d", len(g), len(w))
}
