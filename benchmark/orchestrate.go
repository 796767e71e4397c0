package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
)

// samples holds one set of runs: workload → metric → one value per run.
type samples map[string]map[string][]float64

// child runs one workload in a fresh process and returns its result line.
func child(exe, workload string, seed int64, seconds float64, trace int, out string) (*line, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--out", out)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	for _, l := range lines {
		if bytes.HasPrefix(l, []byte("FAIL ")) {
			fmt.Printf("%s seed %d: %s\n", workload, seed, l)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var res line
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return &res, nil
}

// runSet makes runs passes over the workloads, interleaved so that a slow
// minute on a shared box spreads over all of them; pass i uses seed+i.
func runSet(exe string, seed int64, seconds float64, runs, trace int, out string) (samples, map[string]string, error) {
	set, units := samples{}, map[string]string{}
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			res, err := child(exe, w.name, seed+int64(i), seconds, trace, out)
			if err != nil {
				return nil, nil, err
			}
			if set[w.name] == nil {
				set[w.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				set[w.name][name] = append(set[w.name][name], m.Value)
				units[name] = m.Unit
			}
			fmt.Printf("# run %d %-10s correct=%v attempted=%d failed=%d\n", i+1, w.name, res.Correct, res.Attempted, res.Failed)
		}
	}
	return set, units, nil
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	if med := median(xs); med != 0 {
		return (q3 - q1) / med
	}
	return 0
}

// orchestrate runs every workload in child processes and prints medians and
// quartiles per metric; with aa it does so twice and holds the two sets, and
// each set's spread, to the end-to-end bounds. It returns the exit code.
func orchestrate(seed int64, seconds float64, runs int, aa bool, trace int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	sets := 1
	if aa {
		sets = 2
	}
	var all []samples
	var units map[string]string
	for s := 0; s < sets; s++ {
		set, u, err := runSet(exe, seed, seconds, runs, trace, out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		all, units = append(all, set), u
	}

	code := 0
	type row struct {
		Unit   string  `json:"unit"`
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
	}
	summary := map[string]map[string]row{}
	fmt.Printf("\n%-10s %-36s %-6s %14s %14s %14s %7s", "workload", "metric", "unit", "median", "q1", "q3", "spread")
	if aa {
		fmt.Printf(" %14s %7s %7s  %s", "median B", "spread", "B vs A", "verdict")
	}
	fmt.Println()
	for _, w := range workloads {
		names := make([]string, 0, len(all[0][w.name]))
		for n := range all[0][w.name] {
			names = append(names, n)
		}
		sort.Strings(names)
		summary[w.name] = map[string]row{}
		for _, n := range names {
			a := all[0][w.name][n]
			q1, q3 := quartiles(a)
			summary[w.name][n] = row{units[n], median(a), q1, q3}
			fmt.Printf("%-10s %-36s %-6s %14.4f %14.4f %14.4f %7.3f", w.name, n, units[n], median(a), q1, q3, spread(a))
			if aa {
				b := all[1][w.name][n]
				worse, verdict := 0.0, ""
				if ma := median(a); ma != 0 {
					worse = (median(b) - ma) / ma
				}
				for _, g := range endToEnd {
					if g.name != n {
						continue
					}
					if g.higher {
						worse = -worse
					}
					switch {
					case g.name != "setup_s" && (spread(a) > g.bound || spread(b) > g.bound):
						// setup_s is held to its medians only, as the
						// acceptance driver holds it.
						verdict, code = "UNRESOLVED: spread exceeds bound "+strconv.FormatFloat(g.bound, 'g', -1, 64), 1
					case worse > g.bound:
						verdict, code = "DIFFER: B worse than A beyond bound "+strconv.FormatFloat(g.bound, 'g', -1, 64), 1
					default:
						verdict = "agree"
					}
				}
				fmt.Printf(" %14.4f %7.3f %+7.3f  %s", median(b), spread(b), worse, verdict)
			}
			fmt.Println()
		}
	}
	js, err := json.Marshal(map[string]any{
		"seed": seed, "seconds": seconds, "runs": runs, "sets": sets, "traced": trace != 0,
		"cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"not_measured": "link rate and wire latency; scaling with core count; fed, pcap and anomaly-only paths",
		"results":      summary,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: summary: %v\n", err)
		return 1
	}
	// This benchmark defines the baseline and claims nothing about it.
	fmt.Printf("%s,\"claim\":null}\n", js[:len(js)-1])
	return code
}
