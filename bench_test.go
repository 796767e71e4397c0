// Package ruru_bench runs the persisted trajectory suite (internal/bench,
// the BENCH_*.json entries) under `go test -bench`, for -cpuprofile and
// -benchmem. Per-package benchmarks live beside their packages; the
// pipeline benchmark is the benchmark/ module.
package ruru_bench

import (
	"testing"

	"ruru/internal/bench"
)

// BenchmarkSpecs runs every internal/bench suite entry as a sub-benchmark
// named like its BENCH_*.json key (e.g. BenchmarkSpecs/db/write-batch-ref),
// so the trajectory and `go test -bench` measure the same bodies.
func BenchmarkSpecs(b *testing.B) {
	for _, s := range bench.Specs() {
		b.Run(s.Name, s.F)
	}
}
