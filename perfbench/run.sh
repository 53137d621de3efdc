#!/usr/bin/env bash
# Builds msamp_bench and the programs it times into .bench_build/, then runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload day --seed 42 --seconds 12 --trace 0
#
# Run it from the root of a source checkout.  Build output goes to
# .bench_build/build.log (and to stderr when the build fails), so the
# benchmark's last stdout line stays its JSON result.
set -euo pipefail

if [[ ! -f CMakeLists.txt || ! -d src || ! -f perfbench/CMakeLists.txt ]]; then
  echo "perfbench/run.sh: run from the root of a source checkout" >&2
  exit 2
fi

build=.bench_build
mkdir -p "$build"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  # The repository's own build (its default RelWithDebInfo), with
  # perfbench/ added to it by hook.cmake.
  cmake -S . -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_PROJECT_INCLUDE="$PWD/perfbench/hook.cmake" \
    >"$build/build.log" 2>&1 || { cat "$build/build.log" >&2; exit 2; }
fi
cmake --build "$build" --target msamp_bench -j 4 >>"$build/build.log" 2>&1 ||
  { tail -n 50 "$build/build.log" >&2; exit 2; }

exec "$build/perfbench/msamp_bench" "$@"
