#!/usr/bin/env sh
# Tier-2 quality gate: formatting, vet, the jslint static-analysis suite, and
# the full test suite under the race detector. Run from the repository root:
#
#   ./scripts/check.sh
#
# Tier-1 (go build ./... && go test ./...) remains the fast gate; this script
# is the slower pre-merge check.
#
# Knobs:
#   FUZZTIME=2s   shorten (or lengthen) the differential fuzz step; CI's PR
#                 gate uses a short burst, the default 10s is for pre-merge.
#   BENCH=1       also run the benchmark-regression gate (scripts/bench.sh).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt -s needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...
# perfbench is its own module (replace repro => ../), so ./... above never
# reaches it; vetting it type-checks the benchmark, bench_test.go included,
# against the current API.
(cd perfbench && go vet ./...)
# perfbench's own tests: TestFixtureMatchesCoreTrain checks that the
# benchmark's training fixture writes byte-identical models to core.Train,
# and the rest pin its verdict-identity and accounting helpers (~32s on 2
# CPUs).
echo "== perfbench tests =="
(cd perfbench && go test -count=1 ./...)

# Project-native static analysis: the five jslint analyzers prove the
# hot-path/pool/obs/kind/goroutine invariants on every build. The suite is
# budgeted to stay under ~10s wall (loader plus analysis, currently ~2s); the
# recorded runtime is the early warning before it outgrows the gate.
echo "== jslint =="
jslint_start=$(date +%s)
go run ./cmd/jslint ./...
echo "jslint clean in $(( $(date +%s) - jslint_start ))s"

# The batch scan engine and the CLI on top of it are the concurrency-heavy
# paths; race-check them first and explicitly so a worker-pool regression
# fails fast (the full -race suite below still covers everything). Dedup
# covers the content-hash cache (shared LRU under concurrent workers) and
# the pooled zero-alloc extractors feeding the same scan path.
echo "== go test -race (batch scan + dedup) =="
go test -race -run 'Scan|Dedup|ParallelTrain' ./internal/core ./cmd/jsdetect
# The scan's workers share a claim counter and per-slot ready flags with the
# emitting caller, and concurrent calls share the dedup cache: soak the
# stream, batch and parallel-loop tests under the race detector ten times.
go test -race -count=10 -run 'ScanStream|ScanBatch|ParallelFor' ./internal/core ./internal/par
go test -race -run 'NGram|CollectStats|ExtractFull' ./internal/features

# The scan service is the worker-pool-over-HTTP layer: the soak test compares
# concurrent /v1/scan verdicts bit-for-bit against a direct ScanBatch, and
# the drain/backpressure tests pin the shutdown and 429 paths. Like jslint,
# the gate is budgeted (~60s wall under -race on a small machine) and the
# recorded runtime is the early warning before it outgrows that.
echo "== go test -race (scan service) =="
service_start=$(date +%s)
go test -race -short ./internal/service ./cmd/jsscand
echo "service suite clean in $(( $(date +%s) - service_start ))s (budget 60s)"

# The stage-0 cascade and the on-disk verdict store: the crash-recovery
# suite (torn writes, flipped checksums, double-open) must hold under the
# race detector, and the false-bypass gate is the measured license for the
# triage bypass to exist at all (<1% disagreement vs the full pipeline over
# the corpus plus all ten transforms).
echo "== go test -race (triage + verdict store) =="
go test -race ./internal/triage ./internal/store
echo "== triage false-bypass gate =="
go test -run TestTriageFalseBypassGate -count=1 ./internal/core

echo "== go test -race =="
go test -race ./...

# Semantic-equivalence oracle: the differential suites are the executable
# ground-truth check behind the transform/deobfuscate pipeline, so run them
# by name (fast, no -race needed — the interpreter is single-goroutine).
echo "== semantic oracle =="
go test -run 'Oracle|Differential' ./internal/oracle ./internal/js/interp

# Short differential fuzz. -fuzzminimizetime is pinned low because corpus
# minimization otherwise monopolizes the single fuzz worker on small
# machines and starves actual exploration.
fuzztime="${FUZZTIME:-10s}"
echo "== fuzz ($fuzztime) =="
go test -fuzz FuzzInterpDifferential -fuzztime "$fuzztime" -fuzzminimizetime 5x -run '^$' ./internal/oracle
# The store record codec: decode must never panic on arbitrary bytes, and
# encode→decode must be the identity (the crash-recovery contract rests on
# both).
go test -fuzz FuzzStoreRecordRoundTrip -fuzztime "$fuzztime" -fuzzminimizetime 5x -run '^$' ./internal/store
# The parser against its refspec: the same acceptance, tree, token and
# comment offsets, ast.Lines positions and error text, and a printer fixed
# point for whatever parses.
go test -fuzz FuzzParse -fuzztime "$fuzztime" -fuzzminimizetime 5x -run '^$' ./internal/js/parser
# The stage-0 triage features against their byte-at-a-time reference: the
# multi-pass Compute must return the same Features, bit for bit.
go test -fuzz FuzzTriageCompute -fuzztime "$fuzztime" -fuzzminimizetime 5x -run '^$' ./internal/triage

# Per-package coverage floors. The interpreter floor guards the oracle (the
# sandbox is only as trustworthy as its coverage); the flow and scope floors
# guard the graph layers every feature and rule is derived from.
echo "== coverage floors =="
check_floor() {
    pkg="$1"
    floor="$2"
    cov=$(go test -count=1 -cover "$pkg" | awk '{for (i=1; i<=NF; i++) if ($i ~ /^[0-9.]+%$/) {sub(/%/, "", $i); print $i}}')
    if [ -z "$cov" ]; then
        echo "could not read $pkg coverage" >&2
        exit 1
    fi
    if ! awk -v c="$cov" -v f="$floor" 'BEGIN { exit !(c >= f) }'; then
        echo "$pkg coverage ${cov}% is below the ${floor}% floor" >&2
        exit 1
    fi
    printf '%-28s %6s%%  (floor %s%%)\n' "$pkg" "$cov" "$floor"
}
check_floor ./internal/js/interp 80
check_floor ./internal/flow      90
check_floor ./internal/js/scope  75
# The two packages the allocation overhaul rewrote: the floors keep the
# pooled/zero-alloc paths and the dedup cache from shedding tests.
check_floor ./internal/features  85
check_floor ./internal/core      80
# The observability layer and the benchmark-diff parser the regression gate
# trusts: both are plumbing other gates depend on, so they get floors too.
check_floor ./internal/obs       75
check_floor ./internal/benchfmt  75
# The scan service: the daemon's correctness harness (soak, drain,
# backpressure, dedup-over-HTTP) must keep covering the package it proves.
check_floor ./internal/service   80
# The stage-0 router and the verdict store: a bypass decision nobody tests
# is a silent misclassification, and an untested recovery path is data loss.
check_floor ./internal/triage    80
check_floor ./internal/store     80

# Informational per-package coverage summary (no gate): a shrinking number
# here is the early warning before a floor trips. The run's output is
# captured first — with set -e a test failure aborts the script instead of
# vanishing into the formatter.
echo "== coverage summary =="
cov_out=$(go test -count=1 -cover ./internal/...)
echo "$cov_out" | awk '
    /^ok/ { cov = "-"; for (i=1; i<=NF; i++) if ($i ~ /%$/) cov = $i
            printf "%-40s %8s\n", $2, cov }'

# Benchmark-regression gate, opt-in via BENCH=1: compares a fresh run of the
# hot-path benchmarks against the last checked-in BENCH_<n>.json and fails
# on a >15% ns/op or >10% allocs/op / B/op regression. Off by default —
# benchmark noise on shared CI
# machines makes it a poor always-on gate; run it when touching the scan
# pipeline. See scripts/bench.sh.
if [ "${BENCH:-0}" = "1" ]; then
    echo "== benchmark regression gate =="
    ./scripts/bench.sh
    # The arena parse path and the 12-byte node header (a byte range plus
    # the NodeID; lines and columns come from ast.Lines only for reported
    # diagnostics) are the hard-won parse savings, so StageParse gets a
    # tighter gate than the fleet-wide ±15%: time, allocs and B/op all at
    # ±10% against the checked-in baseline, which holds B/op near 29 MB/op
    # (it was 51.5 while every node carried a 48-byte line/column span). A
    # single benchmark is cheap, so fold min-of-8 — the shared host drifts
    # ±10-15% between multi-minute windows, and a deeper fold is the only
    # way a ±10% timing gate stays signal rather than coin flip.
    echo "== benchmark regression gate (StageParse, ±10%) =="
    BENCH_PATTERN='BenchmarkStageParse$' TOLERANCE=0.10 BENCH_COUNT=8 ./scripts/bench.sh
    # The fused scope/flow plane gets the same focused treatment: the dense
    # NodeID rewrite bought the stage its speedup, and a ±10% time+allocs
    # gate on StageFlow is what keeps a stray allocation in the fused walk
    # or a pool-discipline slip from quietly eating it back.
    echo "== benchmark regression gate (StageFlow, ±10%) =="
    BENCH_PATTERN='BenchmarkStageFlow$' TOLERANCE=0.10 BENCH_COUNT=8 ./scripts/bench.sh
    # The n-gram window memo made StageFeatures ~2.5x faster; the same
    # ±10% time+allocs gate keeps a slower hash path or a heap-escaping
    # memo from eating it back.
    echo "== benchmark regression gate (StageFeatures, ±10%) =="
    BENCH_PATTERN='BenchmarkStageFeatures$' TOLERANCE=0.10 BENCH_COUNT=8 ./scripts/bench.sh
    # The multi-pass triage.Compute runs about twice as fast as its
    # byte-at-a-time reference (BenchmarkComputeReference, same mix) at zero
    # allocations; the same ±10% gate keeps a slower pass or a scratch
    # buffer that escapes the pool from eating that back.
    echo "== benchmark regression gate (triage Compute, ±10%) =="
    BENCH_PATTERN='BenchmarkCompute$' TOLERANCE=0.10 BENCH_COUNT=8 ./scripts/bench.sh
fi

echo "OK"
