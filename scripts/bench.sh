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
#   ./scripts/bench.sh -ab <rev> [pairs]
#                                paired A/B against <rev> (default 10
#                                pairs): builds the test binaries of <rev>
#                                and of the working tree, runs them in
#                                alternation (switching which runs first)
#                                and prints, per benchmark, the median
#                                per-pair ratio of ns/op, cpu-ns/op, B/op
#                                and allocs/op, the pairs the tree won and
#                                the <rev> runs' IQR. Report only: it gates
#                                nothing. Narrow it with BENCH_PATTERN.
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
-ab|ab)
    rev="${2:-}"
    pairs="${3:-10}"
    if [ -z "$rev" ]; then
        echo "usage: $0 -ab <rev> [pairs]" >&2
        exit 2
    fi
    repo=$(pwd)
    # A throwaway export of <rev> (git archive, so nothing is registered
    # in .git) plus the binaries and outputs; removed on any exit.
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    trap 'exit 130' INT TERM
    mkdir "$tmp/base" "$tmp/bin" "$tmp/out"
    git archive "$rev" | tar -x -C "$tmp/base"
    echo "== building test binaries: $rev vs working tree =="
    built=""
    for pkg in $PKGS; do
        name=$(echo "$pkg" | tr './' '__')
        go test -c -o "$tmp/bin/head$name" "$pkg"
        # Only packages with a matching benchmark on the tree side run.
        if [ ! -x "$tmp/bin/head$name" ] ||
            ! (cd "$pkg" && "$tmp/bin/head$name" -test.list "$BENCH_PATTERN" | grep -q '^Benchmark'); then
            continue
        fi
        (cd "$tmp/base" && go test -c -o "$tmp/bin/base$name" "$pkg")
        if [ -x "$tmp/bin/base$name" ]; then
            built="$built $pkg"
        fi
    done
    if [ -z "$built" ]; then
        echo "no package has a benchmark matching $BENCH_PATTERN on both sides" >&2
        exit 1
    fi
    # runside SIDE PAIR: one run of every built package's binary, each from
    # its own tree's package directory (benchmarks may read testdata).
    runside() {
        for pkg in $built; do
            name=$(echo "$pkg" | tr './' '__')
            dir="$repo/$pkg"
            [ "$1" = base ] && dir="$tmp/base/$pkg"
            (cd "$dir" && "$tmp/bin/$1$name" -test.run '^$' -test.bench "$BENCH_PATTERN" \
                -test.benchmem -test.count 1) >>"$tmp/out/$1.$2.txt"
        done
    }
    files=""
    i=1
    while [ "$i" -le "$pairs" ]; do
        echo "== pair $i/$pairs =="
        if [ $((i % 2)) -eq 1 ]; then
            runside base "$i"
            runside head "$i"
        else
            runside head "$i"
            runside base "$i"
        fi
        files="$files $tmp/out/base.$i.txt $tmp/out/head.$i.txt"
        i=$((i + 1))
    done
    echo "== $pairs pairs: head = working tree, base = $rev =="
    # shellcheck disable=SC2086 # files is a space-separated path list
    go run ./cmd/benchreg ab $files
    ;;
*)
    echo "usage: $0 [-update | -ab <rev> [pairs]]" >&2
    exit 2
    ;;
esac
