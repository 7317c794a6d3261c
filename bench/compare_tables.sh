#!/usr/bin/env bash
# Identity check for behaviour-preserving changes: runs the same
# deterministic programs from two build trees and diffs their stdout.
#
#   bench/compare_tables.sh PARENT_BUILD CHANGE_BUILD
#
# Both arguments are CMake build directories of this repository (say, one
# built from the parent commit and one from the change, both of the same
# build type). The programs compared are
#
#   * the bench binaries that print simulated counters only, each run as
#     `WVM_THREADS=1 <bench> --benchmark_filter=NONE` (the thread pool is
#     pinned because the source-engine table's term-cache attribution
#     depends on the parallel batch schedule); bench_replication, bench_wal
#     and bench_microbench print wall-clock timings and are left out;
#   * every example, with the arguments examples/CMakeLists.txt registers
#     it under in ctest (scenario files are read from this checkout, so both
#     trees run the same script).
#
# Every program's stdout plus its exit status is compared. Exits 0 when all
# match, 1 on any difference (a unified diff is printed per program), and 2
# on bad usage or a missing binary.
set -u

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent=$(cd "$1" && pwd) || exit 2
change=$(cd "$2" && pwd) || exit 2
scenarios=$(cd "$(dirname "$0")/../examples/scenarios" && pwd) || exit 2

benches=(
  bench_ablation_caching bench_ablation_compensation bench_batching
  bench_consistency_matrix bench_fault_overhead bench_fig62_bytes_vs_c
  bench_fig63_bytes_vs_k bench_fig64_io_vs_k_s1 bench_fig65_io_vs_k_s2
  bench_hybrid_sc bench_messages bench_multi_view bench_relations_sweep
  bench_self_maintenance bench_source_engine bench_staleness
  bench_three_update_case
)

# "<label> <binary under examples/> [args...]", as registered with ctest.
examples=(
  "example_quickstart quickstart"
  "example_anomaly_tour anomaly_tour"
  "example_retail_warehouse retail_warehouse"
  "example_consistency_audit consistency_audit 10 6"
  "example_multi_source multi_source 10"
  "example_advisor advisor"
  "example_scenario_anomaly scenario_runner $scenarios/anomaly.wvm"
  "example_scenario_keyed scenario_runner $scenarios/keyed_deletes.wvm"
  "example_scenario_modify scenario_runner $scenarios/modify_batch.wvm"
  "example_scenario_replicated scenario_runner $scenarios/replicated_dimensions.wvm"
)

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

differences=0
compared=0

# compare LABEL BINARY_PATH_IN_TREE [ARGS...]
compare() {
  local label=$1 binary=$2
  shift 2
  local side tree
  for side in parent change; do
    tree=${!side}
    if [[ ! -x "$tree/$binary" ]]; then
      echo "missing binary: $tree/$binary" >&2
      exit 2
    fi
    # Run inside the scratch directory so nothing lands in the checkout.
    { (cd "$out" && WVM_THREADS=1 "$tree/$binary" "$@" 2>/dev/null)
      echo "exit status: $?"; } > "$out/$label.$side"
  done
  compared=$((compared + 1))
  if ! diff -u --label "$label (parent)" --label "$label (change)" \
      "$out/$label.parent" "$out/$label.change"; then
    differences=$((differences + 1))
  fi
}

for bench in "${benches[@]}"; do
  compare "$bench" "bench/$bench" --benchmark_filter=NONE
done
for entry in "${examples[@]}"; do
  read -r -a words <<< "$entry"
  compare "${words[0]}" "examples/${words[1]}" "${words[@]:2}"
done

if [[ $differences -ne 0 ]]; then
  echo "compare_tables: $differences of $compared programs differ" >&2
  exit 1
fi
echo "compare_tables: all $compared programs print identical stdout"
