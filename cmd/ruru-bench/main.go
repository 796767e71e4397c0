// Command ruru-bench runs the fixed microbenchmark suite (internal/bench)
// via testing.Benchmark and writes a machine-readable trajectory entry —
// the BENCH_*.json files scripts/bench_compare.sh diffs across PRs.
//
// Usage:
//
//	ruru-bench -json BENCH_PRn.json [-benchtime 1s]
package main

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"ruru/internal/bench"
)

func main() {
	testing.Init() // registers test.* flags: required for testing.Benchmark outside "go test"
	var (
		jsonOut   = flag.String("json", "", "run the microbenchmark suite and write a BENCH_*.json trajectory entry to this path")
		benchtime = flag.String("benchtime", "", "per-benchmark run time (default: testing's 1s)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ruru-bench -json BENCH_PRn.json [-benchtime 1s]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *jsonOut == "" || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := runJSON(*jsonOut, *benchtime); err != nil {
		fmt.Fprintf(os.Stderr, "ruru-bench -json: %v\n", err)
		os.Exit(1)
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
