#!/usr/bin/env bash
# CI perf + hygiene gate.
#
#  1. Lint gate: no stray println!/print! in the kernel — all diagnostics
#     must flow through the query log or the obs metrics layer.
#  2. Baseline gate: every benchmark that ships a committed baseline must
#     actually have one in benchmarks/baseline/ — a silently missing
#     BENCH_*.json means the perf gate compares against nothing.
#  3. Perf gate: run the §5.1 regression_check harness with JSON output and
#     compare its normalized latency (extended/plain ratio) against the
#     committed baseline; >20% regression fails (the threshold lives in
#     crates/bench/src/bin/regression_check.rs).
#  4. Plan-regret gate: run the cost-model calibration grid; a planner
#     whose picks run more than MAX_PLAN_REGRET times slower than the
#     fastest plan it could have picked fails.
#
# Extra cargo flags (e.g. an offline [patch] config) can be injected via
# MLQL_CARGO_FLAGS / MLQL_BUILD_FLAGS:
#   MLQL_CARGO_FLAGS="--config /path/to/patch-config.toml" \
#   MLQL_BUILD_FLAGS="--offline" scripts/bench_check.sh
# Note: `cargo clippy` does not forward `--config` to its inner cargo
# invocation — for patched/offline setups put the config in
# $CARGO_HOME/config.toml instead.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO=${CARGO:-cargo}
BASELINE=benchmarks/baseline/BENCH_regression_check.json
# Worst tolerated ratio of the planner's pick to the fastest plan.
MAX_PLAN_REGRET=1.5

# Benchmarks whose committed baseline is load-bearing.  Each entry is
# "<report>:<bin>" — the baseline file is benchmarks/baseline/BENCH_<report>.json
# and is regenerated by the <bin> binary with MLQL_BENCH_DIR=benchmarks/baseline.
REQUIRED_BASELINES=(
    regression_check:regression_check
    recovery:recovery_bench
    obs:obs_overhead
    calibration:calibration
    txn:txn_throughput
)

echo "== clippy gate: deny println!/print! in mlql-kernel =="
if $CARGO ${MLQL_CARGO_FLAGS:-} clippy --version >/dev/null 2>&1; then
    $CARGO ${MLQL_CARGO_FLAGS:-} clippy -p mlql-kernel --lib ${MLQL_BUILD_FLAGS:-} -- \
        -D clippy::print_stdout -D warnings
else
    echo "clippy unavailable in this toolchain; skipping lint gate"
fi

echo "== baseline gate: required BENCH_*.json files present =="
missing=0
for entry in "${REQUIRED_BASELINES[@]}"; do
    report=${entry%%:*}
    bin=${entry##*:}
    file="benchmarks/baseline/BENCH_${report}.json"
    if [ ! -f "$file" ]; then
        echo "missing baseline $file — regenerate with:" >&2
        echo "  MLQL_BENCH_DIR=benchmarks/baseline $CARGO run --release -p mlql-bench --bin $bin" >&2
        missing=1
    else
        echo "found $file"
    fi
done
if [ "$missing" -ne 0 ]; then
    echo "bench_check: FAILED (missing committed baselines)" >&2
    exit 1
fi

echo "== core-count gate: baselines vs this machine =="
# Benchmark numbers are only comparable when the baseline was recorded at
# the same CPU width.  Every remaining baseline is a ratio taken within
# one run, which survives width changes, so a mismatch is loud but
# non-fatal.
machine_cores=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)
for entry in "${REQUIRED_BASELINES[@]}"; do
    report=${entry%%:*}
    file="benchmarks/baseline/BENCH_${report}.json"
    baseline_cores=$(sed -n 's/.*"cpu_parallelism":\([0-9][0-9]*\).*/\1/p' "$file" | head -n1)
    if [ -z "$baseline_cores" ]; then
        echo "WARNING: $file lacks a cpu_parallelism field — regenerate it" >&2
        echo "         (newer harnesses stamp the recording machine's core count)." >&2
    elif [ "$machine_cores" != "0" ] && [ "$baseline_cores" != "$machine_cores" ]; then
        echo "WARNING: $file was recorded on a ${baseline_cores}-core machine but this" >&2
        echo "         machine has ${machine_cores} cores — overhead ratios are NOT" >&2
        echo "         directly comparable; regenerate the baseline with:" >&2
        echo "           MLQL_BENCH_DIR=benchmarks/baseline $CARGO run --release -p mlql-bench --bin ${entry##*:}" >&2
    else
        echo "$file: cpu_parallelism=$baseline_cores matches machine ($machine_cores)"
    fi
done

echo "== perf gate: regression_check vs $BASELINE =="
$CARGO ${MLQL_CARGO_FLAGS:-} run --release -p mlql-bench --bin regression_check \
    ${MLQL_BUILD_FLAGS:-} -- --baseline "$BASELINE"

echo "== overhead gate: observability on vs off (hard limit 1.10 in-bin) =="
$CARGO ${MLQL_CARGO_FLAGS:-} run --release -p mlql-bench --bin obs_overhead \
    ${MLQL_BUILD_FLAGS:-}

echo "== plan-regret gate: calibration grid (limit $MAX_PLAN_REGRET) =="
# The grid times every plan the planner could pick for each query class;
# max_plan_regret is the worst ratio of the picked plan's time to the
# fastest one's.  Timing-sensitive: re-run on a loaded machine before
# trusting a failure.
MLQL_BENCH_DIR=target/bench-check $CARGO ${MLQL_CARGO_FLAGS:-} run --release \
    -p mlql-bench --bin calibration ${MLQL_BUILD_FLAGS:-}
regret=$(sed -n 's/.*"max_plan_regret":\([0-9.eE+-]*\).*/\1/p' \
    target/bench-check/BENCH_calibration.json | head -n1)
if ! awk -v r="$regret" -v max="$MAX_PLAN_REGRET" 'BEGIN { exit !(r != "" && r <= max) }'; then
    echo "bench_check: FAILED (max_plan_regret ${regret:-missing} > $MAX_PLAN_REGRET)" >&2
    exit 1
fi
echo "max_plan_regret $regret <= $MAX_PLAN_REGRET"

echo "bench_check: OK"
