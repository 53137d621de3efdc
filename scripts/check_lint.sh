#!/usr/bin/env bash
# Static-analysis lane: msamp_lint (the project-invariant rules — see
# docs/STATIC_ANALYSIS.md) plus clang-tidy (.clang-tidy: bugprone,
# performance, concurrency) when the tool is available.
#
#   scripts/check_lint.sh [BUILD_DIR] [--lint-only|--tidy-only]
#
# Escape hatches, matching the TSan/ASan lane convention:
#   MSAMP_SKIP_LINT=1  skip the msamp_lint invariant pass
#   MSAMP_SKIP_TIDY=1  skip clang-tidy (also skipped, with a note, when
#                      clang-tidy is not installed — the reference
#                      container ships only GCC)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=build
MODE=all
for arg in "$@"; do
  case "$arg" in
    --lint-only) MODE=lint ;;
    --tidy-only) MODE=tidy ;;
    *) BUILD="$arg" ;;
  esac
done

if [ "$MODE" != "tidy" ]; then
  if [ "${MSAMP_SKIP_LINT:-0}" = "1" ]; then
    echo "[check_lint] MSAMP_SKIP_LINT=1 — skipping msamp_lint"
  else
    cmake --build "$BUILD" --target msamp_lint
    # Machine-readable report for CI artifacts; per-rule counts land on
    # stderr.  Exit status still gates the lane (findings -> non-zero).
    mkdir -p "$BUILD"
    "$BUILD"/tools/msamp_lint --root . --format=json \
      > "$BUILD"/lint_report.json
    echo "[check_lint] report: $BUILD/lint_report.json"
  fi
fi

if [ "$MODE" != "lint" ]; then
  if [ "${MSAMP_SKIP_TIDY:-0}" = "1" ]; then
    echo "[check_lint] MSAMP_SKIP_TIDY=1 — skipping clang-tidy"
  elif ! command -v clang-tidy >/dev/null 2>&1; then
    echo "[check_lint] clang-tidy not installed — skipping the tidy lane"
  elif [ ! -f "$BUILD/compile_commands.json" ]; then
    echo "[check_lint] $BUILD/compile_commands.json missing — configure first" >&2
    exit 2
  else
    # Library, tool, bench, and example translation units; headers are
    # covered through HeaderFilterRegex.  Tests are excluded: gtest macros
    # expand to patterns several bugprone checks misfire on.
    find src tools bench examples \( -name '*.cc' -o -name '*.cpp' \) -print0 |
      xargs -0 clang-tidy -p "$BUILD" --quiet
  fi
fi

echo "[check_lint] OK"
