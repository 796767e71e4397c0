// Command benchmark measures the whole Ruru pipeline — packets in, latency
// points stored and drawn — from outside the program: wall clock around
// public calls, Pipeline.Stats, a /ws client, an HTTP client, the runtime
// and the kernel's accounting. See README.md for the workloads, the metrics
// and how they are predicted to interact.
//
// One workload, one process (what BENCHMARK.json's command runs):
//
//	go -C benchmark run . --workload bulk --seed 1 --seconds 10 --trace 0
//
// Every workload in fresh child processes, with medians and quartiles:
//
//	go -C benchmark run . -runs 5
//	go -C benchmark run . -aa
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process; empty runs every workload in child processes")
		seed    = flag.Int64("seed", 1, "seed of the traffic generator and the history preload")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the timed loop")
		trace   = flag.Int("trace", 0, "1: also run the stage-major traced pass and report the per-layer metrics")
		out     = flag.String("out", "out", "directory for scratch data and span files")
		runs    = flag.Int("runs", 5, "with no -workload: fresh-process runs per workload, interleaved across workloads")
		aa      = flag.Bool("aa", false, "with no -workload: run two sets of -runs back to back and fail where they disagree beyond a metric's bound")
		pins    = flag.Bool("pins", false, "print pins.json for the current generator and exit")
		mani    = flag.Bool("manifest", false, "print BENCHMARK.json as the benchmark's own tables define it and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *pins {
		if err := writePins(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *mani {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(theManifest()); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *name == "" {
		os.Exit(orchestrate(*seed, *seconds, *runs, *aa, *trace, *out))
	}
	w := findWorkload(*name)
	if w == nil || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q or bad -seconds\n", *name)
		os.Exit(2)
	}
	rc := &runConfig{wl: w, seed: *seed, seconds: *seconds, scale: 1, trace: *trace != 0, outDir: *out}
	res, err := runWorkload(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	report(os.Stdout, rc, res)
	if !res.Correct {
		os.Exit(1)
	}
}

// line is the last line of a run's standard output.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints every metric by name and unit, then the result line: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced one.
func report(w io.Writer, rc *runConfig, res *result) {
	fmt.Fprintf(w, "# workload %s seed %d seconds %g trace %v\n", rc.wl.name, rc.seed, rc.seconds, rc.trace)
	fmt.Fprintf(w, "# not measured: link rate and wire latency (loopback memory copies only); scaling with core count; the fed, pcap and anomaly-only paths\n")
	printMetrics(w, "end-to-end", res.EndToEnd)
	printMetrics(w, "per-layer", res.PerLayer)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
	l := line{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.EndToEnd}
	if rc.trace {
		l.Metrics = res.PerLayer
	}
	b, err := json.Marshal(l)
	if err != nil { // NaN or Inf in a metric: a bug in the benchmark
		fmt.Fprintf(os.Stderr, "benchmark: result line: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(w, "%s\n", b)
}

func printMetrics(w io.Writer, kind string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-11s %-40s %16.6f %s\n", kind, n, m[n].Value, m[n].Unit)
	}
}
