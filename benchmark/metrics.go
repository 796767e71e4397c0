package main

// gated is one end-to-end metric: what BENCHMARK.json declares and what the
// -aa mode checks. The smoke test holds the two together.
type gated struct {
	name   string
	unit   string
	higher bool    // better when higher
	bound  float64 // share of the parent's median it may worsen by
}

// Every end-to-end metric is reported on every workload. 0.25 is the widest
// bound the acceptance contract allows, and what this two-core shared
// sandbox needs: unchanged code differs from itself by a tenth to a fifth on
// the rates from one run to the next, and a bound has to clear that spread
// or the parent fails against itself. Tap-to-live and query latency do not
// repeat within any bound here (the same code gives medians from 0.4 to 8 ms)
// and are per-layer tail.* metrics.
var endToEnd = []gated{
	{"setup_s", "s", false, 0.25},
	{"pkts_per_s", "1/s", true, 0.25},
	{"points_per_s", "1/s", true, 0.25},
	{"cpu_ns_per_pkt", "ns", false, 0.25},
	{"peak_rss_mb", "MB", false, 0.25},
}

// layerMetric is one per-layer metric: ungated, reported by a traced run.
type layerMetric struct {
	name   string
	unit   string
	higher bool
}

// perLayer lists every per-layer metric, in the order the README discusses
// them: first the counts read at layer boundaries after the timed loop, then
// the stage costs of the traced pass.
var perLayer = []layerMetric{
	{"fail_frac", "frac", false},
	{"ledger_gap", "count", false},
	{"nic.imissed", "count", false},
	{"nic.nombuf", "count", false},
	{"nic.refused", "count", false},
	{"nic.ring_watermark_frac", "frac", false},
	{"core.completed_frac", "frac", true},
	{"core.expired", "count", false},
	{"sketch.sketch_only_flows", "count", false},
	{"mq.bus_drop", "count", false},
	{"analytics.sub_dropped", "count", false},
	{"analytics.lookup_miss_frac", "frac", false},
	{"ruru.sink_drop", "count", false},
	{"ruru.backpressure_frac", "frac", false},
	{"tsdb.series", "count", false},
	{"tsdb.points", "count", true},
	{"tsdb.dropped", "count", false},
	{"tsdb.wal_fsyncs", "count", false},
	{"tsdb.qcache_hit_frac", "frac", true},
	{"tsdb.qcache_partial_frac", "frac", false},
	{"ws.hub_drop", "count", false},
	{"ws.meas_per_frame", "count", true},
	{"gen.mean_pkts_per_s", "1/s", true},
	{"proc.cpu_ns_per_pkt", "ns", false},
	{"proc.cpu_util", "frac", false},
	{"proc.allocs_per_pkt", "count", false},
	{"proc.alloc_bytes_per_pkt", "B", false},
	{"proc.gc_cycles", "count", false},
	{"proc.gc_pause_ms", "ms", false},
	{"proc.gomaxprocs", "count", true},
	{"proc.cpus", "count", true},
	{"gen.late_p99_ms", "ms", false},
	{"gen.late_max_ms", "ms", false},
	{"gen.laps", "count", true},
	{"gen.lap_pkts", "count", true},
	{"tail.tap_to_live_p50_ms", "ms", false},
	{"tail.tap_to_live_p90_ms", "ms", false},
	{"tail.query_p50_ms", "ms", false},
	{"tail.tap_to_live_p99_ms", "ms", false},
	{"tail.tap_to_live_p999_ms", "ms", false},
	{"tail.tap_to_live_samples", "count", true},
	{"tail.tap_to_live_under_query_p50_ms", "ms", false},
	{"tail.query_p90_ms", "ms", false},
	{"tail.query_p99_ms", "ms", false},
	{"tail.query_samples", "count", true},
	{"trace.overhead_frac", "frac", false},
	{"trace.laps", "count", true},
	{"rss.hash_ns_per_pkt", "ns", false},
	{"pkt.parse_ns_per_pkt", "ns", false},
	{"nic.inject_ns_per_pkt", "ns", false},
	{"nic.rx_ns_per_pkt", "ns", false},
	{"ring.burst_ns_per_item", "ns", false},
	{"sketch.observe_ns_per_pkt", "ns", false},
	{"core.handshake_ns_per_pkt", "ns", false},
	{"core.tsrtt_ns_per_pkt", "ns", false},
	{"core.seqrtt_ns_per_pkt", "ns", false},
	{"core.all_trackers_ns_per_pkt", "ns", false},
	{"analytics.codec_ns_per_meas", "ns", false},
	{"mq.publish_ns_per_msg", "ns", false},
	{"geo.lookup_ns_per_addr", "ns", false},
	{"analytics.enrich_ns_per_meas", "ns", false},
	{"ruru.sink_ns_per_meas", "ns", false},
	{"ruru.frame_json_ns_per_meas", "ns", false},
	{"ws.broadcast_ns_per_frame", "ns", false},
	{"tsdb.write_ref_ns_per_pt", "ns", false},
	{"tsdb.write_ns_per_pt", "ns", false},
	{"tsdb.wal_ns_per_pt", "ns", false},
	{"bench.harness_ns_per_pkt", "ns", false},
	{"ruru.layers_ns_per_pkt", "ns", false},
	{"ruru.glue_ns_per_pkt", "ns", false},
	{"tsdb.query_tier_ms", "ms", false},
	{"tsdb.query_cached_ms", "ms", false},
	{"web.query_overhead_ms", "ms", false},
	{"tsdb.wal_bytes_per_pt", "B", false},
	{"tsdb.checkpoint_ms", "ms", false},
	{"tsdb.restore_pts_per_s", "1/s", true},
}

var layerUnit = func() map[string]string {
	m := make(map[string]string, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = l.unit
	}
	return m
}()

// manifest is BENCHMARK.json: exactly these keys.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWhy    `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// theManifest builds BENCHMARK.json from the tables the benchmark itself
// reports by; the smoke test fails when the checked-in file differs.
func theManifest() manifest {
	m := manifest{
		Command:    []string{"go", "-C", "benchmark", "run", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWhy{w.name, w.why})
	}
	for _, g := range endToEnd {
		bound := g.bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{g.name, g.unit, better(g.higher), &bound})
	}
	for _, l := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{l.name, l.unit, better(l.higher), nil})
	}
	return m
}
