#!/usr/bin/env bash
# Docs-drift lane: the documentation must keep up with the CLI and with
# itself.
#
#   scripts/check_docs.sh [BUILD_DIR]
#
# Checks:
#   1. Every msampctl subcommand named in the binary's usage line is
#      documented in README.md and docs/API.md (the two "command index"
#      surfaces), so a new subcommand cannot ship undocumented.
#   2. Every relative markdown link `](path.md...)` in README.md and
#      docs/*.md resolves to an existing file.
#   3. The policy handbook (docs/POLICIES.md) stays linked from
#      README.md, docs/API.md, and docs/MODEL.md.
#   4. Every `scripts/*.sh` named in README.md, docs/*.md, and the verify
#      skill (.claude/skills/verify/SKILL.md) exists, so deleting or
#      renaming a script cannot leave the docs pointing at it.
#
# Escape hatch, matching the other lanes: MSAMP_SKIP_DOCS=1.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build}

if [ "${MSAMP_SKIP_DOCS:-0}" = "1" ]; then
  echo "[check_docs] MSAMP_SKIP_DOCS=1 — skipping docs checks"
  exit 0
fi

fail=0

# --- 1. CLI subcommands are documented ---------------------------------
# usage: msampctl <simulate-rack|analyze|...> [--flag value ...]
usage_line=$("$BUILD"/tools/msampctl 2>&1 | head -1 || true)
subcommands=$(printf '%s\n' "$usage_line" |
  sed -n 's/.*<\(.*\)>.*/\1/p' | tr '|' '\n')
if [ -z "$subcommands" ]; then
  echo "[check_docs] could not parse subcommands from: $usage_line" >&2
  exit 2
fi
for doc in README.md docs/API.md; do
  for cmd in $subcommands; do
    if ! grep -q "$cmd" "$doc"; then
      echo "[check_docs] $doc does not mention msampctl subcommand '$cmd'" >&2
      fail=1
    fi
  done
done

# --- 2. Relative markdown links resolve --------------------------------
for doc in README.md docs/*.md; do
  dir=$(dirname "$doc")
  # Relative .md targets only; external URLs and anchors are out of scope.
  for target in $(grep -o '](\([^)#]*\.md\)' "$doc" | sed 's/^](//' |
                  grep -v '^http' || true); do
    if [ ! -f "$dir/$target" ]; then
      echo "[check_docs] $doc links to missing file '$target'" >&2
      fail=1
    fi
  done
done

# --- 3. The policy handbook is reachable -------------------------------
for doc in README.md docs/API.md docs/MODEL.md; do
  if ! grep -q 'POLICIES\.md' "$doc"; then
    echo "[check_docs] $doc lost its link to the policy handbook" >&2
    fail=1
  fi
done

# --- 4. Named scripts exist --------------------------------------------
for doc in README.md docs/*.md .claude/skills/verify/SKILL.md; do
  [ -f "$doc" ] || continue
  for script in $(grep -o 'scripts/[A-Za-z0-9_./-]*\.sh' "$doc" |
                  sort -u || true); do
    if [ ! -f "$script" ]; then
      echo "[check_docs] $doc names missing script '$script'" >&2
      fail=1
    fi
  done
done

if [ "$fail" != "0" ]; then
  echo "[check_docs] FAILED" >&2
  exit 1
fi
echo "[check_docs] OK"
