#!/usr/bin/env bash
# Verifies the bench determinism contract: every bench that fans its
# windows out over bench::parallel_windows, plus the fig01 and fig06
# figure benches, must emit byte-identical stdout and bench_out/ CSVs
# regardless of MSAMP_THREADS.
#
#   scripts/check_bench_determinism.sh [build-dir]     # default: build
#   THREADS="4 1 7" scripts/check_bench_determinism.sh
#   BENCHES="bench_fig01_queue_share" ...
#
# Each bench runs once per thread count in its own scratch directory.  The
# first cell is the reference and every later one is diffed against it
# (stdout and the bench_out/ tree, byte for byte).  The dataset-backed benches (bench_fig05 onwards,
# bench_table*) share one copy of the 96-rack bench day through
# MSAMP_DATASET: the first cell generates it, the others map it, so list
# the largest thread count first.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build}
THREADS=${THREADS:-"4 1"}
BENCHES=${BENCHES:-"
  bench_crosscheck_fluid_vs_packet
  bench_crosscheck_packet_incast
  bench_crosscheck_switch_vs_host
  bench_validation_stability
  bench_ablation_cc_compare
  bench_ablation_buffer_policies
  bench_ablation_ecn_threshold
  bench_ablation_fabric
  bench_ablation_asic_generations
  bench_ablation_gro_inflation
  bench_fig01_queue_share
  bench_fig06_burst_frequency
"}

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
export MSAMP_DATASET=${MSAMP_DATASET:-$scratch/bench_day.bin}

CELLS=()
for t in $THREADS; do CELLS+=("MSAMP_THREADS=$t"); done

fail=0
for bench in $BENCHES; do
  bin="$PWD/$BUILD/bench/$bench"
  [ -x "$bin" ] || { echo "error: $bin not built"; exit 1; }
  ref=""
  for i in "${!CELLS[@]}"; do
    dir="$scratch/${bench}_$i"
    mkdir -p "$dir"
    (cd "$dir" && env ${CELLS[$i]} "$bin" > stdout.txt)
    if [ -z "$ref" ]; then
      ref="$dir"
    elif ! diff -r "$ref" "$dir" > /dev/null; then
      echo "MISMATCH: $bench differs between '${CELLS[0]}' and '${CELLS[$i]}'"
      diff -r "$ref" "$dir" | head -20
      fail=1
    fi
  done
  echo "ok: $bench byte-identical for MSAMP_THREADS in {$THREADS}"
done

[ "$fail" -eq 0 ] && echo "BENCH DETERMINISM OK" || exit 1
