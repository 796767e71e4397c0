// Package ruru_bench runs the microbenchmark suite (internal/bench) under
// `go test -bench`, for -cpuprofile and -benchmem, and as the test binary
// scripts/bench_compare.sh builds at a base commit and at HEAD.
// Per-package benchmarks live beside their packages; the pipeline
// benchmark is the benchmark/ module.
package ruru_bench

import (
	"testing"

	"ruru/internal/bench"
)

// BenchmarkSpecs runs every internal/bench suite entry as a sub-benchmark
// named by its row (e.g. BenchmarkSpecs/db/write-batch-ref-steady).
func BenchmarkSpecs(b *testing.B) {
	for _, s := range bench.Specs() {
		b.Run(s.Name, s.F)
	}
}
