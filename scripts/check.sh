#!/usr/bin/env bash
# Full local check: configure, build (warnings as errors), run the test
# suite, the static-analysis and format lanes, a ThreadSanitizer lane over
# the concurrency-bearing fleet/util targets, then regenerate every
# table/figure of the paper (CSV output under bench_out/).
set -euo pipefail
cd "$(dirname "$0")/.."

# Ninja when available, the platform default generator otherwise (the
# 1-core reference container ships only make).
GEN=()
command -v ninja >/dev/null 2>&1 && GEN=(-G Ninja)

cmake -B build "${GEN[@]}" -DMSAMP_WERROR=ON
cmake --build build
ctest --test-dir build --output-on-failure

# Static-analysis lane: msamp_lint (project invariants: determinism bans,
# output-path iteration order, wire-format hygiene, fingerprint coverage)
# plus clang-tidy when installed.  Skip with MSAMP_SKIP_LINT=1 /
# MSAMP_SKIP_TIDY=1.
scripts/check_lint.sh build

# Format lane: .clang-format enforced via --dry-run -Werror.  Skip with
# MSAMP_SKIP_FORMAT=1.
scripts/check_format.sh

# Docs lane: every msampctl subcommand documented, markdown cross-links
# resolve, the policy handbook stays linked.  Skip with MSAMP_SKIP_DOCS=1.
scripts/check_docs.sh build

# TSan lane: a second build tree with -DMSAMP_TSAN=ON, running the thread
# pool (its index claim under ThreadPool and ParallelMap), parallel fleet
# runner, and the rest of the fleet/util suites under ThreadSanitizer.  Skip with MSAMP_SKIP_TSAN=1 (e.g. on toolchains
# without libtsan).
if [ "${MSAMP_SKIP_TSAN:-0}" != "1" ]; then
  cmake -B build-tsan "${GEN[@]}" -DMSAMP_TSAN=ON
  cmake --build build-tsan --target msamp_tests msamp_lint
  # The three byte-fuzz cases are single-threaded, so they cannot show a
  # race, and under TSan they take most of the pass; the ASan lane and
  # tier-1 run them.
  ctest --test-dir build-tsan --output-on-failure \
    -R '^(ThreadPool|ParallelMap|FleetParallel|FleetRunner|FleetConfig|FluidRack|Dataset|DatasetView|Shard|SpillSink|Merge|Aggregate|Worker|Coordinator|Rng|Lint|BufferPolicy|Simd|WindowReference)' \
    -E '^(Dataset\.(SingleByteMutationsNeverCrash|RejectsTruncationAtEveryLength)|DatasetView\.HeaderAndDirectoryTamperNeverCrashes)$'
  # Cross-check: the scalar SIMD path must pass the suites that call the
  # kernel (its scalar twin is what every other host falls back to).
  MSAMP_SIMD=scalar ctest --test-dir build-tsan --output-on-failure \
    -R '^Simd'
fi

# ASan+UBSan lane (every UBSan report fatal, float-cast-overflow
# included): a third build tree with -DMSAMP_ASAN=ON, running the
# byte-level parsers — dataset (de)serialization including the hostile-blob
# hardening tests, the sync-trace reader with its mutation test, and the
# msampctl flag-parser/CLI tests — and the suites
# whose code reuses buffers across windows (re-armed fluid racks, reused
# combine/align/read outputs, the streamed window's lane buffers, the
# sketch's estimate table, the blend's rounding fallback and its skip of
# an unchanged counter, the burst process's retransmission ring, the event
# engine's slab of inline callbacks and the packet-path suites that drive
# it), and the read path's computed indices (the percentile/CDF selection's
# rank pointers, the counts walk, the loss-curve bins) with AddressSanitizer
# and UBSan watching the bounds checks.  Skip with MSAMP_SKIP_ASAN=1.
if [ "${MSAMP_SKIP_ASAN:-0}" != "1" ]; then
  cmake -B build-asan "${GEN[@]}" -DMSAMP_ASAN=ON
  cmake --build build-asan --target msamp_tests msampctl msamp_lint
  ctest --test-dir build-asan --output-on-failure \
    -R '^(Dataset|DatasetView|FleetConfig|Shard|SpillSink|ThreadPool|Merge|Protocol|Flags|cli_usage|cli_pipeline|cli_cluster|cli_query|cli_sweep|cli_version|Lint|Simd|FluidRack|FleetParallel|FleetRunner|CombineRuns|AlignSeries|TcFilter|FlowSketch|LerpSample|MeasurementReference|BurstProcess|Rng|FluidStepReference|Simulator|SimulatorReference|Link|NicFixture|SwitchFixture|TcpFixture|DriverFixture|IntegrationFixture|WindowReference|TraceIo|Diagnose|StallArtifacts|cli_analyze|Aggregate|Percentile|EmpiricalCdf)'
  # Cross-check: the AVX2 tally's unaligned loads and stores run under ASan
  # in the Simd suites above; the scalar path gets the same run, with the
  # multi-CPU TcFilter reads that call the kernel.
  MSAMP_SIMD=scalar ctest --test-dir build-asan --output-on-failure \
    -R '^(Simd|TcFilter)'
fi

# Bench determinism: the parallelized benches and the fig01/fig06 figure
# benches must emit byte-identical stdout and bench_out/ CSVs for any
# MSAMP_THREADS, and the three that reach the tally kernel also under
# MSAMP_SIMD=scalar; the AVX2 tally kernel must beat scalar by >= 2x.
scripts/check_bench_determinism.sh build

# Dataset determinism: one reference day, and every other way of making
# it — other thread counts, the scalar SIMD path, `msampctl fleet --shard
# I/N` runs merged back, the fault-tolerant cluster with and without
# injected worker kills — must be byte-identical to it; the mapped readers
# (`msampctl report`/`query`) must print identical tables over every copy
# and under every SIMD path, and MSAMP_SIMD must route where it says.
scripts/check_dataset_determinism.sh build

for b in build/bench/bench_*; do
  echo "== $b"
  "$b"
done
for e in build/examples/*; do
  [ -x "$e" ] && { echo "== $e"; "$e" > /dev/null; }
done
echo "ALL CHECKS PASSED"
