#!/usr/bin/env bash
# Benchmark-trajectory gate: runs the fixed microbenchmark suite
# (`ruru-bench -json`, see internal/bench) and compares ns/op per benchmark
# against the BEST value any checked-in BENCH_*.json recorded on the same
# number of CPUs holds for it (the files carry "cpus"; a 2-CPU run against a
# 1-CPU file compares machines, not commits; and against the newest file
# only, one slow recording would ratchet the baseline upward). A regression
# beyond the noise tolerance fails the build; a new benchmark (absent from
# every baseline) and a benchmark removed from the suite are both reported
# but never fail.
#
# Usage: scripts/bench_compare.sh [out.json]
#   out.json     where to write the fresh trajectory entry
#                (default: bench_current.json, uploaded as a CI artifact)
#
# Environment:
#   BENCH_TOL        allowed ns/op regression factor (default 1.15 = +15%)
#   BENCH_BASELINE   explicit baseline file (default: every BENCH_*.json in
#                    the repo root with the fresh run's "cpus", best value
#                    per benchmark; no such file skips the comparison)
#   BENCH_TIME       per-benchmark run time (default 1s)
#
# The checked-in BENCH_PRn.json files form the performance trajectory of
# the repo: one entry per PR that touched a hot path. To record a new
# entry, run `go run ./cmd/ruru-bench -json BENCH_PRn.json` on a quiet
# machine and commit the file.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-bench_current.json}
TOL=${BENCH_TOL:-1.15}
BENCHTIME=${BENCH_TIME:-1s}

go run ./cmd/ruru-bench -json "$OUT" -benchtime "$BENCHTIME"

baselines=${BENCH_BASELINE:-}
if [ -z "$baselines" ]; then
  cpus=$(sed -n 's/^ *"cpus": *\([0-9]*\),*$/\1/p' "$OUT" | head -n 1)
  baselines=$(grep -lE "^ *\"cpus\": *$cpus,?\$" BENCH_*.json 2>/dev/null | sort -V | tr '\n' ' ' || true)
fi

if [ -z "${baselines// /}" ]; then
  echo "bench_compare: skipping comparison (no BENCH_*.json baseline recorded on ${cpus:-?} CPUs)"
  exit 0
fi
echo "bench_compare: comparing $OUT against the best of ${baselines}(tolerance ${TOL}x)"

# Plain-shell JSON extraction: the files are machine-written with one key
# per line, so "name"/"ns_per_op" pairs can be scraped without jq (which
# the CI image may not have).
extract() { # extract FILE -> lines "name ns_per_op"
  awk '
    /^    "[^"]+": \{$/ { name = $1; gsub(/^"|":$/, "", name); next }
    /"ns_per_op":/ && name != "" {
      v = $2; gsub(/,$/, "", v)
      print name, v
      name = ""
    }
  ' "$1"
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Lowest ns/op per benchmark over the baseline files.
for f in $baselines; do extract "$f"; done |
  awk '!($1 in best) || $2 + 0 < best[$1] + 0 { best[$1] = $2 } END { for (n in best) print n, best[n] }' |
  sort > "$tmp/base"
extract "$OUT" | sort > "$tmp/cur"

fail=0
while read -r name cur; do
  base=$(awk -v n="$name" '$1 == n { print $2 }' "$tmp/base")
  if [ -z "$base" ]; then
    echo "  NEW   $name: ${cur} ns/op (no baseline entry)"
    continue
  fi
  verdict=$(awk -v b="$base" -v c="$cur" -v tol="$TOL" 'BEGIN {
    ratio = c / b
    printf "%.3f", ratio
    exit (ratio > tol) ? 1 : 0
  }') && ok=1 || ok=0
  if [ "$ok" = 1 ]; then
    echo "  ok    $name: ${cur} vs ${base} ns/op (${verdict}x)"
  else
    echo "  FAIL  $name: ${cur} vs ${base} ns/op (${verdict}x > ${TOL}x tolerance)"
    fail=1
  fi
done < "$tmp/cur"

while read -r name base; do
  if ! grep -q "^$name " "$tmp/cur"; then
    echo "  GONE  $name: in baseline ($base ns/op) but not in current suite"
  fi
done < "$tmp/base"

if [ "$fail" = 1 ]; then
  echo "bench_compare: ns/op regression beyond ${TOL}x tolerance" >&2
  exit 1
fi
echo "bench_compare: ok"
