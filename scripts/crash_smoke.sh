#!/bin/sh
# Crash-recovery smoke test (run from the repo root; CI runs it after the
# unit suite): start the full pipeline with durable storage, let it ingest
# synthetic traffic, SIGKILL it mid-stream, restart on the same -data-dir,
# and assert every point that was durable before the kill is queryable
# after recovery. Then checkpoint the recovered store, SIGKILL it again and
# restart a second time: the store that recovery rebuilt must itself write a
# checkpoint the next open loads.
#
# With -fsync always, a point is fsynced to the WAL before it is counted in
# DBPoints, so the pre-kill DBPoints reading is a hard lower bound for the
# post-restart count: recovered < pre-kill means lost measurements.
set -eu

listen="127.0.0.1:18098"
tmp="$(mktemp -d)"
data="$tmp/data"
pid=""
trap 'if [ -n "$pid" ]; then kill -9 "$pid" 2>/dev/null || true; fi; rm -rf "$tmp"' EXIT

db_points() {
    curl -sf "http://$listen/api/stats" 2>/dev/null |
        python3 -c 'import json,sys; print(json.load(sys.stdin)["DBPoints"])' 2>/dev/null || echo 0
}

# persist_field NAME prints one PersistStats counter of the running daemon.
persist_field() {
    curl -sf "http://$listen/api/stats" |
        python3 -c "import json,sys; print(json.load(sys.stdin)['Persist']['$1'])"
}

kill_daemon() {
    kill -9 "$pid"
    wait "$pid" 2>/dev/null || true
    pid=""
}

# restart LOG: start quiescent (-rate 0: no new arrivals) on the same
# directory, wait for it to serve, and fail unless at least $pre points are
# served and reported recovered through checkpoint + WAL.
restart() {
    "$tmp/ruru" -listen "$listen" -rate 0 -data-dir "$data" >"$tmp/$1" 2>&1 &
    pid=$!
    post=0
    for _ in $(seq 1 30); do
        sleep 1
        post=$(db_points)
        [ "$post" -gt 0 ] && break
    done
    restored=$(persist_field RestoredPoints)
    recovered=$((restored + $(persist_field WALReplayedPoints)))
    if [ "$post" -lt "$pre" ]; then
        echo "FAIL ($1): $pre durable points before kill -9, only $post after restart" >&2
        cat "$tmp/$1" >&2
        exit 1
    fi
    if [ "$recovered" -lt "$pre" ]; then
        echo "FAIL ($1): recovery path reported $recovered points (< $pre)" >&2
        cat "$tmp/$1" >&2
        exit 1
    fi
}

go build -o "$tmp/ruru" ./cmd/ruru

"$tmp/ruru" -listen "$listen" -rate 400 -duration 2m -queues 2 -overflow block \
    -data-dir "$data" -fsync always -checkpoint-every 4s >"$tmp/run1.log" 2>&1 &
pid=$!

pre=0
for _ in $(seq 1 30); do
    sleep 1
    pre=$(db_points)
    [ "$pre" -ge 200 ] && break
done
if [ "$pre" -lt 200 ]; then
    echo "FAIL: only $pre points ingested before kill" >&2
    cat "$tmp/run1.log" >&2
    exit 1
fi

# Exercise the manual checkpoint endpoint on the way down.
curl -sf -X POST "http://$listen/api/checkpoint" >/dev/null
kill_daemon

restart run2.log
echo "PASS: $pre durable points before kill -9, $post served after restart ($recovered via checkpoint+WAL)"

# Second restart: the recovered store checkpoints everything it holds, then
# dies; the next open must load that checkpoint.
pre=$post
curl -sf -X POST "http://$listen/api/checkpoint" >/dev/null
kill_daemon

restart run3.log
if [ "$restored" -eq 0 ]; then
    echo "FAIL (run3.log): nothing restored from the recovered store's checkpoint" >&2
    cat "$tmp/run3.log" >&2
    exit 1
fi
echo "PASS: $post served after the second restart ($restored from the recovered store's checkpoint, $recovered via checkpoint+WAL)"
