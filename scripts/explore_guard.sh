#!/bin/sh
# explore_guard.sh — throughput floor and determinism smoke for the
# prefix-sharing schedule explorer.
#
#   scripts/explore_guard.sh record   # re-record tree + seed-replay baselines
#   scripts/explore_guard.sh guard    # fail if the tree lost its floor or its 10x edge
#   scripts/explore_guard.sh smoke    # fail if -j1 and -jN sweeps disagree
#
# record runs the identical schedule set through both engines — the cold
# seed-replay baseline first, then the snapshot tree — writes both as keyed
# records ("explore-baseline", "explore") in BENCH_wallclock.json, and holds
# the tree to the "explore" rows of the guard table in internal/wallclock,
# which fail unless it swept at least 10x the baseline's schedules/sec.
# guard re-runs only the tree (the baseline is the slow engine; its recorded
# rate is the yardstick) and holds it to the same rows: its own floor AND
# the ratio.
# smoke diffs the deterministic "explore:" lines of a -j 1 and a -j N run;
# "perf:" lines are the non-deterministic half and are filtered out.
set -eu

MODE="${1:-guard}"
GO="${GO:-go}"
WALLCLOCK="${WALLCLOCK:-BENCH_wallclock.json}"
CORPUS="${CORPUS:-EXPLORE_corpus.txt}"
SMOKE_BUDGET="${SMOKE_BUDGET:-20000}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT INT TERM

"$GO" build -o "$tmp/sentrybench" ./cmd/sentrybench

corpus_flag=""
[ -f "$CORPUS" ] && corpus_flag="-explore-corpus $CORPUS"

case "$MODE" in
record)
    # shellcheck disable=SC2086  # corpus_flag is deliberately word-split
    "$tmp/sentrybench" -explore -explore-baseline -j 0 $corpus_flag \
        -wallclock "$WALLCLOCK"
    # shellcheck disable=SC2086
    "$tmp/sentrybench" -explore -j 0 $corpus_flag \
        -wallclock "$WALLCLOCK" -wallclock-guard "$WALLCLOCK"
    ;;
guard)
    # shellcheck disable=SC2086
    "$tmp/sentrybench" -explore -j 0 $corpus_flag -wallclock-guard "$WALLCLOCK"
    ;;
smoke)
    # shellcheck disable=SC2086
    "$tmp/sentrybench" -explore -explore-budget "$SMOKE_BUDGET" -j 1 $corpus_flag \
        | grep '^explore:' > "$tmp/j1.out"
    # shellcheck disable=SC2086
    "$tmp/sentrybench" -explore -explore-budget "$SMOKE_BUDGET" -j 0 $corpus_flag \
        | grep '^explore:' > "$tmp/jN.out"
    diff "$tmp/j1.out" "$tmp/jN.out"
    echo "explore-smoke: -j 1 and -j 0 sweeps verdict- and coverage-identical"
    ;;
*)
    echo "usage: $0 [record|guard|smoke]" >&2
    exit 2
    ;;
esac
