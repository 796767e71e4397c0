package web

import (
	"net/http"
	"net/http/httptest"
	"net/netip"
	"testing"

	"ruru/internal/geo"
	"ruru/internal/pkt"
	"ruru/internal/ruru"
)

// newSketchServer builds a pipeline with the bounded-memory tier enabled
// (a generous cap) and serves it, without running the engine: tests drive
// the tiers directly through the exported Sketch handles.
func newSketchServer(t *testing.T) (*ruru.Pipeline, *httptest.Server) {
	t.Helper()
	w, err := geo.NewWorld(geo.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ruru.New(ruru.Config{GeoDB: w.DB(), FlowTableBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(p))
	t.Cleanup(func() { srv.Close(); p.Close() })
	return p, srv
}

func topkSummary(hostA byte, sp uint16, totalLen uint16) *pkt.Summary {
	s := &pkt.Summary{}
	s.IP4.Src = netip.AddrFrom4([4]byte{10, 0, 0, hostA})
	s.IP4.Dst = netip.AddrFrom4([4]byte{192, 0, 2, 1})
	s.IP4.TotalLen = totalLen
	s.Decoded = pkt.LayerEthernet | pkt.LayerIPv4 | pkt.LayerTCP
	s.TCP = pkt.TCP{SrcPort: sp, DstPort: 443, Flags: pkt.TCPAck, Seq: 1, Ack: 1}
	return s
}

type topkResp struct {
	Key   string `json:"key"`
	Items []struct {
		Key   string `json:"key"`
		Count uint64 `json:"count"`
		Err   uint64 `json:"err"`
		Lat   *struct {
			Count uint64  `json:"count"`
			Mean  float64 `json:"mean"`
			Min   float64 `json:"min"`
			Max   float64 `json:"max"`
		} `json:"lat_ms"`
	} `json:"items"`
}

func TestTopKDisabled(t *testing.T) {
	_, srv := newServer(t) // exact mode: no FlowTableBytes
	resp, err := http.Get(srv.URL + "/api/topk")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409 when the sketch tier is off", resp.StatusCode)
	}
}

func TestTopKFlowsAndPrefixes(t *testing.T) {
	p, srv := newSketchServer(t)
	// Two flows on queue 0, skewed 10:1 so the ranking is unambiguous;
	// one more on queue 1 to prove the merge spans queues.
	for i := 0; i < 10; i++ {
		p.Sketch[0].Observe(topkSummary(1, 40000, 1500))
	}
	p.Sketch[0].Observe(topkSummary(2, 40001, 100))
	p.Sketch[1].Observe(topkSummary(3, 40002, 700))
	for _, tier := range p.Sketch {
		tier.Publish(true)
	}

	var got topkResp
	getJSON(t, srv.URL+"/api/topk?key=flow&n=2", &got)
	if got.Key != "flow" || len(got.Items) != 2 {
		t.Fatalf("flow topk = %+v, want key=flow with 2 items", got)
	}
	if got.Items[0].Key != "10.0.0.1:40000<->192.0.2.1:443" {
		t.Fatalf("top flow = %q, want the 10x1500B flow first", got.Items[0].Key)
	}
	if got.Items[0].Count < 15000 {
		t.Fatalf("top flow count = %d, want >= 15000 (never underestimates)", got.Items[0].Count)
	}

	// Defaulted params: key=flow, n=10 — all three flows rank.
	var all topkResp
	getJSON(t, srv.URL+"/api/topk", &all)
	if all.Key != "flow" || len(all.Items) != 3 {
		t.Fatalf("default topk = %+v, want 3 flows", all)
	}

	// All sources share 10.0.0.0/24, so the prefix view merges the three
	// flows (across both queues) into a single heavy hitter.
	var pfx topkResp
	getJSON(t, srv.URL+"/api/topk?key=prefix", &pfx)
	if len(pfx.Items) != 1 || pfx.Items[0].Key != "10.0.0.0/24" {
		t.Fatalf("prefix topk = %+v, want only 10.0.0.0/24", pfx)
	}
	if pfx.Items[0].Count < 15800 {
		t.Fatalf("prefix count = %d, want cross-queue sum >= 15800", pfx.Items[0].Count)
	}
}

func TestTopKCityPairs(t *testing.T) {
	p, srv := newSketchServer(t)
	feedSamples(t, p, 5) // Auckland -> Los Angeles, latencies 140..144ms

	var got topkResp
	getJSON(t, srv.URL+"/api/topk?key=city_pair", &got)
	if got.Key != "city_pair" || len(got.Items) != 1 {
		t.Fatalf("city_pair topk = %+v, want one pair", got)
	}
	it := got.Items[0]
	if it.Key != "Auckland→Los Angeles" || it.Count != 5 {
		t.Fatalf("pair = %+v", it)
	}
	if it.Lat == nil || it.Lat.Count != 5 || it.Lat.Min != 140 || it.Lat.Max != 144 {
		t.Fatalf("pair latency = %+v, want 5 samples spanning 140..144ms", it.Lat)
	}
	if it.Lat.Mean < 140 || it.Lat.Mean > 144 {
		t.Fatalf("pair mean = %v out of range", it.Lat.Mean)
	}
}

func TestTopKBadRequests(t *testing.T) {
	_, srv := newSketchServer(t)
	for _, q := range []string{"?key=bogus", "?n=-3", "?n=junk"} {
		resp, err := http.Get(srv.URL + "/api/topk" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /api/topk%s = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestTopKEmpty: the enabled-but-idle tier serves an empty items array,
// not null — dashboards iterate without nil checks.
func TestTopKEmpty(t *testing.T) {
	_, srv := newSketchServer(t)
	var got topkResp
	getJSON(t, srv.URL+"/api/topk?key=flow", &got)
	if got.Items == nil || len(got.Items) != 0 {
		t.Fatalf("idle topk items = %#v, want empty non-nil array", got.Items)
	}
}
