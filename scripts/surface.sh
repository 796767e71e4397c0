#!/usr/bin/env bash
# Structural counts, so a simplification PR's "before -> after" is a command
# and not a hand tally. Run it on the parent checkout and on the change:
#
#   scripts/surface.sh
#
#   go_lines          non-test Go lines under internal/ and cmd/
#   test_lines        _test.go lines under internal/, cmd/ and examples/ (a
#                     move from code into tests shows here, not as a saving)
#   config_fields     fields of ruru.Config (internal/ruru/pipeline.go)
#   daemon_flags      flags cmd/ruru accepts (from its own -h)
#   core_exported     exported top-level names and methods in internal/core
#
# Informational: CI prints it, nothing gates on it.
set -eu
cd "$(dirname "$0")/.."

go_lines=$(find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 |
    xargs -0 cat | wc -l)

test_lines=$(find internal cmd examples -name '*_test.go' ! -path '*/testdata/*' -print0 |
    xargs -0 cat | wc -l)

# Field lines inside `type Config struct { ... }`; `A, B T` counts twice.
config_fields=$(awk '
    /^type Config struct \{$/ { in_cfg = 1; next }
    in_cfg && /^\}/           { in_cfg = 0 }
    in_cfg && match($0, /^\t([A-Z][A-Za-z0-9]*, )*[A-Z][A-Za-z0-9]* /) {
        names = substr($0, 1, RLENGTH)
        n += gsub(/, /, "", names) + 1
    }
    END { print n + 0 }' internal/ruru/pipeline.go)

# The flag package prints one "  -name" line per flag; -h exits 0 or 2.
daemon_flags=$( (go run ./cmd/ruru -h 2>&1 || true) | grep -c '^  -')

core_exported=$(find internal/core -maxdepth 1 -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 awk '
    /^(const|var) \($/                  { blk = 1; next }
    blk && /^\)/                        { blk = 0 }
    blk && /^\t[A-Z][A-Za-z0-9_]*/      { n++ }
    /^(func|type|const|var) [A-Z]/      { n++ }
    /^func \([^)]*\) [A-Z]/             { n++ }
    END { print n + 0 }')

printf 'go_lines      %s\ntest_lines    %s\nconfig_fields %s\ndaemon_flags  %s\ncore_exported %s\n' \
    "$go_lines" "$test_lines" "$config_fields" "$daemon_flags" "$core_exported"
