#!/usr/bin/env bash
# Verifies the bench determinism contract: every bench that fans its
# windows out over bench::parallel_windows, plus the fig01 and fig06
# figure benches, must emit byte-identical stdout and bench_out/ CSVs
# regardless of MSAMP_THREADS and, for those that reach the SIMD kernel,
# of the SIMD path; and the AVX2 path must actually pay for itself on the
# one kernel it has, the sampler's per-CPU counter tally (>= MIN_SPEEDUP
# over scalar on `tally_rows_u64`, when the host has AVX2).
#
#   scripts/check_bench_determinism.sh [build-dir]     # default: build
#   THREADS="4 1 7" scripts/check_bench_determinism.sh
#   BENCHES="bench_fig01_queue_share" MIN_SPEEDUP=1.5 ...
#
# Each bench runs once per cell in its own scratch directory: one cell per
# thread count, plus, for the benches in SCALAR_BENCHES, one at the first
# thread count with MSAMP_SIMD=scalar.  The first cell is the reference
# and every later one is diffed against it (stdout and the bench_out/
# tree, byte for byte).  The dataset-backed benches (bench_fig05 onwards,
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
# The benches that reach util::simd's one kernel, `tally_rows_u64`, which
# folds the per-CPU rows of a multi-CPU TcFilter read: run with a scalar
# kernel that traps, these three reached it and no other bench did.  The
# fluid path's filters have one CPU and are read in place, so under
# MSAMP_SIMD=scalar the other benches would run the same code again.
SCALAR_BENCHES="
  bench_crosscheck_fluid_vs_packet
  bench_crosscheck_switch_vs_host
  bench_ablation_gro_inflation
"
MIN_SPEEDUP=${MIN_SPEEDUP:-2.0}
KERNELS="$PWD/$BUILD/bench/bench_simd_kernels"
[ -x "$KERNELS" ] || { echo "error: $KERNELS not built"; exit 1; }

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
export MSAMP_DATASET=${MSAMP_DATASET:-$scratch/bench_day.bin}

THREAD_CELLS=()
for t in $THREADS; do THREAD_CELLS+=("MSAMP_THREADS=$t"); done
SCALAR_CELL="MSAMP_SIMD=scalar MSAMP_THREADS=${THREADS%% *}"

fail=0
for bench in $BENCHES; do
  bin="$PWD/$BUILD/bench/$bench"
  [ -x "$bin" ] || { echo "error: $bin not built"; exit 1; }
  CELLS=("${THREAD_CELLS[@]}")
  what="MSAMP_THREADS in {$THREADS}"
  if [[ " $(echo $SCALAR_BENCHES) " == *" $bench "* ]]; then
    CELLS+=("$SCALAR_CELL")
    what+=" and MSAMP_SIMD=scalar"
  fi
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
  echo "ok: $bench byte-identical for $what"
done

echo "== AVX2 kernel speedup over scalar (floor ${MIN_SPEEDUP}x)"
(cd "$scratch" && "$KERNELS" > /dev/null)
csv="$scratch/bench_out/simd_kernels.csv"
[ -f "$csv" ] || { echo "error: $csv missing"; exit 1; }
if ! awk -F, '$2 == "avx2" { found = 1 } END { exit !found }' "$csv"; then
  echo "   no avx2 path on this host; skipping the floor"
else
  kernel=tally_rows_u64
  speedup=$(awk -F, -v k="$kernel" '$1 == k && $2 == "avx2" { print $6 }' \
    "$csv")
  [ -n "$speedup" ] || { echo "error: no avx2 row for $kernel"; exit 1; }
  echo "   $kernel: ${speedup}x"
  if ! awk -v s="$speedup" -v m="$MIN_SPEEDUP" \
    'BEGIN { exit !(s + 0 >= m + 0) }'; then
    echo "TOO SLOW: $kernel avx2 speedup ${speedup}x < ${MIN_SPEEDUP}x"
    fail=1
  fi
fi

[ "$fail" -eq 0 ] && echo "BENCH DETERMINISM OK" || exit 1
