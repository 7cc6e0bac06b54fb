#!/usr/bin/env sh
# Benchmark harness over the hot-path packages. Two modes:
#
#   ./scripts/bench.sh -ab <rev> [pairs]
#                                the perf gate: paired A/B against <rev>
#                                (default 20 pairs). Builds the test
#                                binaries of <rev> and of the working tree,
#                                runs them in alternation (switching which
#                                runs first) and prints, per benchmark, the
#                                median per-pair head/base ratio of ns/op,
#                                B/op and allocs/op, the pairs the tree won,
#                                the <rev> runs' IQR and a verdict. Exits 2
#                                when a median exceeds 1+TOLERANCE on ns/op
#                                or 1.10 on B/op or allocs/op.
#   ./scripts/bench.sh -update   run and write the next BENCH_<n>.json
#                                record (check it in with the change that
#                                moved the numbers). Gates nothing: absolute
#                                numbers drift with a shared host's load.
#
# Environment knobs:
#   BENCH_PATTERN   -bench pattern (default . over the hot-path packages)
#   TOLERANCE       relative ns/op bound of the -ab gate (default 0.15)
#   BENCH_COUNT     go test -count repetitions of -update (default 3; the
#                   record keeps the minimum per benchmark)
set -eu

cd "$(dirname "$0")/.."

# The hot path: batch scan engine + the per-stage benchmarks feeding it.
# The repo-root Benchmark* experiment replications (figures, accuracy) are
# deliberately excluded: they train models and measure accuracy, not speed.
PKGS="./internal/core ./internal/js/parser ./internal/features ./internal/ml ./internal/analysis ./internal/transform ./internal/triage"
BENCH_COUNT="${BENCH_COUNT:-3}"
BENCH_PATTERN="${BENCH_PATTERN:-.}"
TOLERANCE="${TOLERANCE:-0.15}"

case "${1:-}" in
-update|update)
    # Latest checked-in record by trajectory number.
    latest=$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1 || true)
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
    ;;
-ab|ab)
    rev="${2:-}"
    # Ten pairs let a planted 15% StageParse slowdown read 1.099 against
    # its 1.10 bound: the host drifts within a pair too, so it takes twenty.
    pairs="${3:-20}"
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
    go build -o "$tmp/bin/benchreg" ./cmd/benchreg
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
    # The gate's exit status is the script's.
    # shellcheck disable=SC2086 # files is a space-separated path list
    "$tmp/bin/benchreg" ab -tolerance "$TOLERANCE" $files
    ;;
*)
    echo "usage: $0 -ab <rev> [pairs] | -update" >&2
    exit 2
    ;;
esac
