package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestManifest holds BENCHMARK.json to the tables the benchmark reports by:
// the file is `go -C benchmark run . -manifest`, byte for byte, and stays
// inside the contract's limits.
func TestManifest(t *testing.T) {
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(theManifest()); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("BENCHMARK.json differs from the benchmark's tables; regenerate with: go -C benchmark run . -manifest > BENCHMARK.json")
	}
	m := theManifest()
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		check(e.Name)
		if !unit.MatchString(e.Unit) || e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("end-to-end %s: bad unit or bound", e.Name)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, l := range m.PerLayer {
		check(l.Name)
		if !unit.MatchString(l.Unit) {
			t.Errorf("per-layer %s: bad unit %q", l.Name, l.Unit)
		}
	}
}

// TestSmoke runs every workload at 1/50 scale, traced, with every output
// check on, and holds the run to what BENCHMARK.json promises: the metric
// names emitted are exactly the declared ones, and the traced pass counts
// per lap what the pipeline's own Stats() counted on the same trace.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rc := &runConfig{wl: w, seed: 1, seconds: 0.2, scale: 1.0 / 50, trace: true, outDir: t.TempDir()}
			res, err := runWorkload(rc)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.Problems {
				t.Errorf("output check: %s", p)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, g := range endToEnd {
				m, ok := res.EndToEnd[g.name]
				if !ok || m.Unit != g.unit {
					t.Errorf("end-to-end %s: missing or unit %q, want %q", g.name, m.Unit, g.unit)
				}
				if m.Value == 0 {
					t.Errorf("end-to-end %s is 0: every gated metric must be non-zero on every workload", g.name)
				}
			}
			if len(res.EndToEnd) != len(endToEnd) {
				t.Errorf("%d end-to-end metrics emitted, %d declared", len(res.EndToEnd), len(endToEnd))
			}
			for _, l := range perLayer {
				if _, ok := res.PerLayer[l.name]; !ok {
					t.Errorf("per-layer %s declared but not emitted", l.name)
				}
			}
			if len(res.PerLayer) != len(perLayer) {
				t.Errorf("%d per-layer metrics emitted, %d declared", len(res.PerLayer), len(perLayer))
			}
			if v := res.PerLayer["ledger_gap"].Value; v != 0 {
				t.Errorf("ledger_gap = %v", v)
			}
			c := res.Counts
			laps, tlaps := c["laps"], c["traced_laps"]
			if laps == 0 || tlaps == 0 {
				t.Fatalf("laps %d, traced laps %d", laps, tlaps)
			}
			for _, k := range []string{"packets", "tcp_packets", "measurements", "points"} {
				if c[k]*tlaps != c["traced_"+k]*laps {
					t.Errorf("%s: pipeline %d over %d laps, traced pass %d over %d laps", k, c[k], laps, c["traced_"+k], tlaps)
				}
			}
		})
	}
}
