// Command ruru-bench regenerates the evaluation: one subcommand per
// experiment in internal/experiments (experimentList; -h lists them),
// printing its table. "all" runs them in order.
//
// Usage:
//
//	ruru-bench [flags] <experiment>|all
//	ruru-bench -json BENCH_PRn.json [-benchtime 1s]
//
// The second form runs the fixed microbenchmark suite (internal/bench) via
// testing.Benchmark and writes a machine-readable trajectory entry —
// the BENCH_*.json files scripts/bench_compare.sh diffs across PRs.
//
// -quick runs every experiment at a tenth of its default scale, for CI.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"ruru/internal/bench"
	"ruru/internal/experiments"
)

// experiment is one subcommand: run prints the experiment's table to w at
// the given scale (1 = the default size, 0.1 under -quick).
type experiment struct {
	id  string
	run func(seed int64, scale float64, w io.Writer) error
}

// experimentList drives dispatch, "all" and the usage line, in this order.
var experimentList = []experiment{
	{"e1", func(seed int64, scale float64, w io.Writer) error {
		_, err := experiments.E1(experiments.E1Config{Seed: seed, Flows: int(20000 * scale)}, w)
		return err
	}},
	{"e4", func(seed int64, scale float64, w io.Writer) error {
		_, err := experiments.E4(experiments.E4Config{
			Seed: seed, Hours: 0.5 * scale, PeriodS: 600, WindowMs: 500, ExtraMs: 4000,
		}, w)
		return err
	}},
	{"e5", func(seed int64, _ float64, w io.Writer) error {
		_, err := experiments.E5(experiments.E5Config{Seed: seed}, w)
		return err
	}},
	{"e6", func(seed int64, scale float64, w io.Writer) error {
		_, err := experiments.E6(experiments.E6Config{Seed: seed, Lookups: int(200_000 * scale)}, w)
		return err
	}},
	{"e7", func(seed int64, scale float64, w io.Writer) error {
		_, err := experiments.E7(experiments.E7Config{Seed: seed, Flows: int(20000 * scale)}, w)
		return err
	}},
	{"e10", func(seed int64, scale float64, w io.Writer) error {
		_, err := experiments.E10(experiments.E10Config{Seed: seed, Flows: int(10000 * scale)}, w)
		return err
	}},
	{"e13", func(seed int64, scale float64, w io.Writer) error {
		_, err := experiments.E13(experiments.E13Config{Seed: seed, Points: int(200_000 * scale)}, w)
		return err
	}},
	{"e14", func(_ int64, scale float64, w io.Writer) error {
		_, err := experiments.E14(experiments.E14Config{Points: int(100_000 * scale)}, w)
		return err
	}},
	{"e15", func(_ int64, scale float64, w io.Writer) error {
		_, err := experiments.E15(experiments.E15Config{Flows: int(10_000_000 * scale)}, w)
		return err
	}},
}

func main() {
	testing.Init() // registers test.* flags: required for testing.Benchmark outside "go test"
	var (
		seed      = flag.Int64("seed", 1, "deterministic seed for all experiments")
		quick     = flag.Bool("quick", false, "reduced scale (CI-friendly)")
		jsonOut   = flag.String("json", "", "run the microbenchmark suite and write a BENCH_*.json trajectory entry to this path")
		benchtime = flag.String("benchtime", "", "per-benchmark run time for -json (default: testing's 1s)")
	)
	ids := make([]string, len(experimentList))
	for i, e := range experimentList {
		ids[i] = e.id
	}
	choices := strings.Join(ids, "|") + "|all"
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ruru-bench [flags] %s\n", choices)
		fmt.Fprintf(os.Stderr, "       ruru-bench -json BENCH_PRn.json [-benchtime 1s]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *jsonOut != "" {
		if err := runJSON(*jsonOut, *benchtime); err != nil {
			fmt.Fprintf(os.Stderr, "ruru-bench -json: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	var selected []experiment
	for _, e := range experimentList {
		if arg := flag.Arg(0); arg == "all" || arg == e.id {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "ruru-bench: unknown experiment %q (want %s)\n", flag.Arg(0), choices)
		os.Exit(2)
	}
	scale := 1.0
	if *quick {
		scale = 0.1
	}
	for i, e := range selected {
		if i > 0 {
			fmt.Println()
		}
		if err := e.run(*seed, scale, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "ruru-bench %s: %v\n", e.id, err)
			os.Exit(1)
		}
	}
}

// runJSON executes the internal/bench suite and writes the trajectory file.
func runJSON(path, benchtime string) error {
	if benchtime != "" {
		if err := flag.Set("test.benchtime", benchtime); err != nil {
			return err
		}
	}
	f := bench.Run(os.Stdout)
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteJSON(out, f); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
