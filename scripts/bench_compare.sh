#!/usr/bin/env bash
# Microbenchmark gate relative to a base commit. It builds the repo-root
# test binary (BenchmarkSpecs: the internal/bench suite) once in a git
# worktree of the base commit and once from this checkout, runs the two
# binaries alternately RUNS times each, and compares each row's median
# ns/op at HEAD against the base's quartiles. Alternating puts the box's
# drift on both sides alike, so a row moves only when the code moved it;
# nothing is compared with a number recorded in another session.
#
# Usage: scripts/bench_compare.sh [record-dir]
#   record-dir   where the raw `go test -bench` text of both sides goes:
#                base.txt and head.txt, RUNS runs each, which benchstat
#                reads as they are (default: bench_record, relative to the
#                repo root)
#
# Environment:
#   BENCH_BASE   commit to compare against (default HEAD~1, the parent)
#   BENCH_TOL    noise tolerance factor (default 1.15)
#   BENCH_TIME   per-row run time, -test.benchtime (default 200ms)
#
# Verdicts, per row:
#   FAIL    the HEAD median is above the base Q3 × BENCH_TOL; or allocs/op
#           rose on a row whose allocs/op is the same in every run of each
#           side (rows where it varies are named at the end, not gated)
#   FASTER  the HEAD median is below the base Q1 ÷ BENCH_TOL
#   ok      neither
#   NEW     the row runs only at HEAD; GONE: only at the base. Neither fails.
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS=9 # runs per side; raise it, not BENCH_TOL, if a no-op change false-fails
REC=${1:-bench_record}
BASE=${BENCH_BASE:-HEAD~1}
TOL=${BENCH_TOL:-1.15}
BENCHTIME=${BENCH_TIME:-200ms}

base_rev=$(git rev-parse --verify "$BASE^{commit}")
tmp=$(mktemp -d)
cleanup() {
  git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
  rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --detach --quiet "$tmp/base" "$base_rev"

echo "bench_compare: building $BASE ($(git rev-parse --short "$base_rev")) and HEAD"
(cd "$tmp/base" && go test -c -o "$tmp/base.test" .)
go test -c -o "$tmp/head.test" .

mkdir -p "$REC"
: >"$REC/base.txt"
: >"$REC/head.txt"
run() { # run SIDE DIR: one suite run of SIDE's binary, appended to its record
  (cd "$2" && "$tmp/$1.test" -test.run '^$' -test.bench '^BenchmarkSpecs$' \
    -test.benchmem -test.benchtime "$BENCHTIME" -test.timeout 10m) >>"$REC/$1.txt"
}
# Each pair swaps which side goes first, so a box that speeds up or slows
# down during the runs does not favour one side.
for i in $(seq "$RUNS"); do
  echo "bench_compare: run $i/$RUNS"
  if [ $((i % 2)) = 1 ]; then
    run base "$tmp/base"
    run head .
  else
    run head .
    run base "$tmp/base"
  fi
done

echo "bench_compare: HEAD against $BASE, median of $RUNS runs, base [Q1, Q3] in ns/op, tolerance ${TOL}x"
awk -v tol="$TOL" '
  # sorted copies the n values src[k, 1..n] into dst[1..n], ascending.
  function sorted(src, k, n, dst,   i, j, x) {
    for (i = 1; i <= n; i++) {
      x = src[k, i] + 0
      for (j = i - 1; j >= 1 && dst[j] > x; j--) dst[j + 1] = dst[j]
      dst[j + 1] = x
    }
  }
  # quant is the q-quantile of the ascending d[1..n], linearly interpolated.
  function quant(d, n, q,   pos, lo) {
    pos = 1 + (n - 1) * q
    lo = int(pos)
    return lo < n ? d[lo] + (pos - lo) * (d[lo + 1] - d[lo]) : d[n]
  }
  # stable reports whether allocs/op is the same in every run of side s.
  function stable(s, name,   k, i) {
    k = s SUBSEP name
    for (i = 2; i <= cnt[k]; i++) if (al[k, i] != al[k, 1]) return 0
    return 1
  }
  function span(name,   k, i, s, lo, hi) {
    lo = hi = al["base" SUBSEP name, 1] + 0
    for (s in sides) {
      k = s SUBSEP name
      for (i = 1; i <= cnt[k]; i++) {
        if (al[k, i] + 0 < lo) lo = al[k, i] + 0
        if (al[k, i] + 0 > hi) hi = al[k, i] + 0
      }
    }
    return lo "–" hi
  }
  /^BenchmarkSpecs\// {
    name = $1
    sub(/^BenchmarkSpecs\//, "", name)
    sub(/-[0-9]+$/, "", name)
    k = side SUBSEP name
    n = ++cnt[k]
    for (i = 2; i < NF; i++) {
      if ($(i + 1) == "ns/op") ns[k, n] = $i
      if ($(i + 1) == "allocs/op") al[k, n] = $i
    }
    if (!(name in seen)) { seen[name] = 1; order[++rows] = name }
  }
  END {
    sides["base"] = sides["head"] = 1
    for (r = 1; r <= rows; r++) {
      name = order[r]
      kb = "base" SUBSEP name
      kh = "head" SUBSEP name
      if (!cnt[kb]) { printf "  NEW     %s\n", name; continue }
      if (!cnt[kh]) { printf "  GONE    %s\n", name; continue }
      split("", b); split("", h)
      sorted(ns, kb, cnt[kb], b)
      sorted(ns, kh, cnt[kh], h)
      bmed = quant(b, cnt[kb], 0.5); q1 = quant(b, cnt[kb], 0.25); q3 = quant(b, cnt[kb], 0.75)
      hmed = quant(h, cnt[kh], 0.5)
      verdict = "ok"
      note = ""
      if (hmed > q3 * tol) verdict = "FAIL"
      else if (hmed < q1 / tol) verdict = "FASTER"
      if (stable("base", name) && stable("head", name)) {
        if (al[kh, 1] + 0 > al[kb, 1] + 0) {
          verdict = "FAIL"
          note = sprintf("  allocs/op %d -> %d", al[kb, 1], al[kh, 1])
        }
      } else {
        unstable = unstable sprintf("\n    %s %s", name, span(name))
      }
      if (verdict == "FAIL") failed++
      printf "  %-7s %-26s base %10.1f [%10.1f, %10.1f]  head %10.1f  %6.3fx%s\n",
        verdict, name, bmed, q1, q3, hmed, (bmed > 0 ? hmed / bmed : 1), note
    }
    if (unstable != "") print "  allocs/op varies between runs, not gated:" unstable
    exit (failed > 0)
  }
' side=base "$REC/base.txt" side=head "$REC/head.txt" || {
  echo "bench_compare: regression beyond ${TOL}x of the base's spread (record in $REC)" >&2
  exit 1
}
echo "bench_compare: ok (record in $REC)"
