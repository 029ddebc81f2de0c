#!/bin/sh
# serve_soak.sh — determinism check over the HTTP serving path.
#
# Runs the deterministic soak workload through sentryd and
# `sentrybench -fleet-soak -url` twice: once with a resident cap forcing
# park/hydrate cycles, once unbounded. The client-visible soak reports
# (per-op outcomes, ledgers, digests) must be byte-identical: eviction may
# never change what a device computed. Each server's own output (its
# banner and shutdown metrics dump) goes to a file under $tmp and is
# printed only when the soak fails, so a passing run prints one line.
set -eu

PORT="${PORT:-8477}"
URL="http://127.0.0.1:$PORT"
GO="${GO:-go}"
DEVICES=8
OPS=100
SEED=1

tmp="$(mktemp -d)"
pid=""
ok=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
    if [ -z "$ok" ]; then
        for log in "$tmp"/sentryd-*.log; do
            [ -f "$log" ] && { echo "--- $log"; cat "$log"; }
        done
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

"$GO" build -o "$tmp/sentryd" ./cmd/sentryd
"$GO" build -o "$tmp/sentrybench" ./cmd/sentrybench

run_soak() { # $1 resident cap, $2 report path
    "$tmp/sentryd" -devices $DEVICES -seed $SEED -faults benign \
        -shards 2 -resident-cap "$1" -listen "127.0.0.1:$PORT" > "$tmp/sentryd-cap$1.log" 2>&1 &
    pid=$!
    # The soak polls the server's health until it is up.
    "$tmp/sentrybench" -fleet-soak -url "$URL" -devices $DEVICES -ops $OPS -seed $SEED \
        -faults benign > "$2"
    kill "$pid"
    wait "$pid" 2>/dev/null || true
    pid=""
}

run_soak 2 "$tmp/capped.json"
run_soak 0 "$tmp/free.json"

diff "$tmp/capped.json" "$tmp/free.json"
ok=1
echo "serve-soak: HTTP soak report byte-identical with eviction on/off ($DEVICES devices, $OPS ops, seed $SEED)"
