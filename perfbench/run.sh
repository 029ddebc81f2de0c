#!/usr/bin/env bash
# Builds sentryd and the perfbench command from this checkout's sources, then
# runs one workload. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve-churn --seed 1 --seconds 50 --trace 0
#
# Binaries, the Go build cache, the go command's own config (telemetry
# counters) and the traced run's span files go under $CARGO_TARGET_DIR
# (default .bench_build), inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$out/sentryd" ./cmd/sentryd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -bin "$out" "$@"
