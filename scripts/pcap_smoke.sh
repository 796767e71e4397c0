#!/bin/sh
# Pcap-replay smoke test (run from the repo root; CI runs it after the
# crash-recovery smoke): write a capture with ruru-gen, replay it through
# the daemon with a lossless port, and hold the result to the generator's
# own counts and to the measurement ledger. Then SIGINT the daemon, which
# must drain, log its final stats and exit 0.
set -eu

listen="127.0.0.1:18097"
tmp="$(mktemp -d)"
pid=""
trap 'if [ -n "$pid" ]; then kill -9 "$pid" 2>/dev/null || true; fi; rm -rf "$tmp"' EXIT

fail() {
    echo "FAIL: $*" >&2
    cat "$tmp/ruru.log" >&2
    exit 1
}

# stat EXPR prints a Python expression over the daemon's /api/stats as s.
stat() {
    curl -sf "http://$listen/api/stats" |
        python3 -c "import json,sys; s=json.load(sys.stdin); print($1)"
}

go build -o "$tmp/ruru" ./cmd/ruru
go build -o "$tmp/ruru-gen" ./cmd/ruru-gen

# "wrote N packets (M completing flows)": N and M are the oracle.
"$tmp/ruru-gen" -o "$tmp/trace.pcap" -duration 5s -seed 3 >"$tmp/gen.log" 2>&1
wrote=$(sed -n 's/.*wrote \([0-9]*\) packets (\([0-9]*\) completing flows).*/\1 \2/p' "$tmp/gen.log")
[ -n "$wrote" ] || { cat "$tmp/gen.log" >&2; echo "FAIL: no packet count from ruru-gen" >&2; exit 1; }
set -- $wrote
want_pkts=$1 want_flows=$2

"$tmp/ruru" -listen "$listen" -pcap "$tmp/trace.pcap" -overflow block -queues 2 >"$tmp/ruru.log" 2>&1 &
pid=$!

for _ in $(seq 1 60); do
    grep -q "replayed [0-9]* packets" "$tmp/ruru.log" && break
    kill -0 "$pid" 2>/dev/null || fail "daemon exited during the replay"
    sleep 1
done
grep -q "replayed $want_pkts packets" "$tmp/ruru.log" || fail "no \"replayed $want_pkts packets\" line"

# The replay is done; wait for the last measurements to be stored.
prev=-1
for _ in $(seq 1 60); do
    cur=$(stat 's["DBPoints"]')
    [ "$cur" -eq "$prev" ] && break
    prev=$cur
    sleep 0.5
done
[ "$cur" -eq "$prev" ] || fail "DBPoints still moving after 30s ($cur)"

pkts=$(stat 's["Port"]["Ipackets"]')
missed=$(stat 's["Port"]["Imissed"]')
completed=$(stat 's["Engine"]["Completed"]')
# Trackers are off, so every completed handshake is one latency point:
# stored, or counted where it was lost.
accounted=$(stat 's["DBPoints"]+s["SinkDrop"]+s["SinkDecodeErrors"]+s["DBDropped"]+s["DBWriteErrors"]+s["ShutdownDrop"]')
[ "$pkts" -eq "$want_pkts" ] || fail "Ipackets $pkts, want $want_pkts"
[ "$missed" -eq 0 ] || fail "Imissed $missed with -overflow block"
[ "$completed" -gt 0 ] || fail "no handshake completed"
[ "$completed" -eq "$want_flows" ] || fail "Engine.Completed $completed, want the generator's $want_flows"
[ "$completed" -eq "$accounted" ] || fail "Engine.Completed $completed, but stored + dropped = $accounted"

kill -INT "$pid"
status=0
wait "$pid" || status=$?
pid=""
[ "$status" -eq 0 ] || fail "exit status $status after SIGINT"
grep -q "final stats" "$tmp/ruru.log" || fail "no final stats record"
echo "PASS: replayed $pkts packets, $completed handshakes measured and accounted for, clean shutdown"
