#!/usr/bin/env sh
# Benchmark-regression harness over the hot-path packages. Two modes:
#
#   ./scripts/bench.sh           compare a fresh run against the latest
#                                checked-in BENCH_<n>.json; exit 2 on any
#                                >TOLERANCE ns/op regression or any
#                                >ALLOC_TOLERANCE allocs/op / B/op regression
#   ./scripts/bench.sh -update   run and write the next BENCH_<n>.json
#                                baseline (check it in with the change that
#                                moved the numbers)
#
# Environment knobs:
#   BENCH_COUNT     go test -count repetitions (default 3; the harness takes
#                   the minimum per benchmark, so more runs = less noise)
#   BENCH_PATTERN   -bench pattern (default . over the hot-path packages)
#   TOLERANCE       relative ns/op gate for compare mode (default 0.15)
#   ALLOC_TOLERANCE relative allocs/op and B/op gate (default 0.10; tighter
#                   than timing because allocation counts are deterministic.
#                   Set to -1 to disable memory gating)
#
# Numbers in a checked-in baseline came from one specific machine; after a
# hardware change, refresh the baseline with -update rather than chasing
# phantom regressions.
set -eu

cd "$(dirname "$0")/.."

# The hot path: batch scan engine + the per-stage benchmarks feeding it.
# The repo-root Benchmark* experiment replications (figures, accuracy) are
# deliberately excluded: they train models and measure accuracy, not speed.
PKGS="./internal/core ./internal/js/parser ./internal/features ./internal/ml ./internal/analysis ./internal/transform ./internal/triage"
BENCH_COUNT="${BENCH_COUNT:-3}"
BENCH_PATTERN="${BENCH_PATTERN:-.}"
TOLERANCE="${TOLERANCE:-0.15}"
ALLOC_TOLERANCE="${ALLOC_TOLERANCE:-0.10}"

# Latest checked-in baseline by trajectory number.
latest=$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1 || true)

mode="${1:-check}"
case "$mode" in
-update|update)
    if [ -n "$latest" ]; then
        n=$(echo "$latest" | sed 's/BENCH_\([0-9]*\)\.json/\1/')
        next="BENCH_$((n + 1)).json"
    else
        # Seeded at the PR number that introduced the harness.
        next="BENCH_4.json"
    fi
    echo "== benchreg run -> $next (count=$BENCH_COUNT) =="
    go run ./cmd/benchreg run -out "$next" -count "$BENCH_COUNT" \
        -bench "$BENCH_PATTERN" \
        -note "scripts/bench.sh -update, count=$BENCH_COUNT" \
        $PKGS
    if [ -n "$latest" ]; then
        echo "== diff $latest -> $next =="
        # New baselines may move: report the diff but do not gate on it.
        # Flags must precede the positional files: the stdlib flag parser
        # stops at the first non-flag argument.
        go run ./cmd/benchreg diff \
            -tolerance "$TOLERANCE" -alloc-tolerance "$ALLOC_TOLERANCE" \
            "$latest" "$next" || true
    fi
    ;;
check|-check)
    if [ -z "$latest" ]; then
        echo "no BENCH_*.json baseline found; run ./scripts/bench.sh -update first" >&2
        exit 1
    fi
    echo "== benchreg compare vs $latest (count=$BENCH_COUNT, tolerance=$TOLERANCE, alloc-tolerance=$ALLOC_TOLERANCE) =="
    go run ./cmd/benchreg compare -baseline "$latest" \
        -tolerance "$TOLERANCE" -alloc-tolerance "$ALLOC_TOLERANCE" \
        -count "$BENCH_COUNT" \
        -bench "$BENCH_PATTERN" \
        $PKGS
    ;;
*)
    echo "usage: $0 [-update]" >&2
    exit 2
    ;;
esac
