#!/usr/bin/env bash
# The repo's standing benchmark: build mlql-workload and run it.
#
#   run.sh [--workload W] [--seed N] [--trace [0|1]] [--selfcheck [RUNS]]
#
# * no --workload: all four; no --trace: the untraced run (end-to-end
#   metrics) and then the traced run (per-layer metrics) of each.
# * op counts are frozen in crates/workload/src/manifest.rs.  The
#   benchmark driver also passes `--seconds S` with BENCHMARK.json's
#   run_seconds, the length those counts were calibrated to; it is handed
#   on to the binary, which scales the counts by S / run_seconds.
# * --selfcheck: the A/A test (two interleaved sets of RUNS >= 5 suite
#   runs of this same binary); fails if any end-to-end median differs
#   between the sets by more than its bound.  Report: out/selfcheck.json
#   (commit it as baseline.json).
#
# Every metric is printed as `name value unit`; the last stdout line of a
# run is the JSON object the benchmark driver reads.  Exit status is
# non-zero on any failed op.  Results, span files and scratch databases
# go to benchmarks/workload/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
cd "$root"

workloads=()
seed_args=()
seconds_args=()
trace=""
selfcheck=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workloads+=("${2:?--workload needs a name}"); shift 2 ;;
    --seed) seed_args=(--seed "${2:?--seed needs a number}"); shift 2 ;;
    --seconds) seconds_args=(--seconds "${2:?--seconds needs a number}"); shift 2 ;;
    --trace)
      if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
    --selfcheck)
      if [[ "${2:-}" =~ ^[0-9]+$ ]]; then selfcheck="$2"; shift 2; else selfcheck=5; shift; fi ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

# The crate is a member of the repo's workspace; without the workspace
# around it there is nothing to measure.
if [ ! -f Cargo.toml ] || [ ! -d crates/kernel ]; then
  echo "run.sh: $root is not the mlql workspace" >&2
  exit 1
fi

# Cargo's own output goes to stderr: stdout carries only results.
cargo build --release --offline -p mlql-workload >&2
bin="${CARGO_TARGET_DIR:-target}/release/mlql-workload"
commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"

if [ -n "$selfcheck" ]; then
  if ! "$bin" manifest | diff -q - BENCHMARK.json >/dev/null; then
    echo "run.sh: BENCHMARK.json differs from 'mlql-workload manifest'" >&2
    exit 1
  fi
  exec "$bin" selfcheck --runs "$selfcheck" --report "$here/out/selfcheck.json"
fi

[ ${#workloads[@]} -gt 0 ] || workloads=(psi_scan psi_probe fig7_join lexicon_edit)
[ -n "$trace" ] && modes=("$trace") || modes=(0 1)
status=0
for w in "${workloads[@]}"; do
  for t in "${modes[@]}"; do
    "$bin" --workload "$w" --trace "$t" --commit "$commit" \
      ${seed_args[@]+"${seed_args[@]}"} ${seconds_args[@]+"${seconds_args[@]}"} || status=$?
  done
done
exit "$status"
