#!/usr/bin/env bash
# Verifies the dataset determinism contract end to end with the real CLI:
# the v6 bytes of a day are a pure function of its config.  One reference
# day is generated (`msampctl fleet`, one thread) and every cell of the
# table below must be `cmp`-identical to it: other thread counts, shard
# splits generated one process per shard (each with its own
# MSAMP_THREADS) and folded back with `msampctl merge`, and the
# fault-tolerant cluster (worker processes, spill sinks, streaming merge)
# with and without injected worker kills.  The mapped readers (`report`,
# `query`) must then print byte-identical tables over every copy.
#
#   scripts/check_dataset_determinism.sh [build-dir]     # default: build
#   ARGS="--racks 8 --hours 4 --samples 300" scripts/check_dataset_determinism.sh
#
# The default scale crosses the busy hour (exemplar selection, rack
# classification) yet regenerates in seconds.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build}
ARGS=${ARGS:-"--racks 6 --hours 8 --samples 200"}
MSAMPCTL="$PWD/$BUILD/tools/msampctl"
[ -x "$MSAMPCTL" ] || { echo "error: $MSAMPCTL not built"; exit 1; }

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
cd "$scratch"

# Cell kinds; each writes the dataset named by its first argument.
# fleet OUT THREADS [msampctl args...]
fleet() {
  local out=$1 threads=$2
  shift 2
  MSAMP_THREADS=$threads "$MSAMPCTL" fleet $ARGS "$@" --out "$out" > /dev/null
}
# shards OUT T0 T1 ...: shard i of N in its own process at MSAMP_THREADS=Ti.
shards() {
  local out=$1 i=0
  shift
  local parts=()
  for threads in "$@"; do
    fleet "$out.s$i" "$threads" --shard "$i/$#"
    parts+=("$out.s$i")
    i=$((i + 1))
  done
  "$MSAMPCTL" merge "${parts[@]}" --out "$out" > /dev/null
}
# cluster OUT [msampctl cluster args...]: three worker processes.
cluster() {
  local out=$1
  shift
  "$MSAMPCTL" cluster $ARGS --threads 2 --workers 3 "$@" --out "$out" \
    > /dev/null 2> "$out.log"
}

CELLS=(
  "fleet-t2       fleet 2"
  "fleet-t3       fleet 3"
  "fleet-t4       fleet 4"
  "shards-3       shards 1 4 2"
  "shards-2       shards 2 3"
  "cluster        cluster"
  "cluster-faults cluster --fault-rate 0.3 --retry-base-ms 10"
)

echo "== reference: fleet, MSAMP_THREADS=1"
fleet ref.bin 1
copies=()
for cell in "${CELLS[@]}"; do
  read -r name kind args <<< "$cell"
  echo "== $name: $kind $args"
  $kind "$name.bin" $args
  if ! cmp ref.bin "$name.bin"; then
    echo "MISMATCH: $name differs from the reference day"
    [ -f "$name.bin.log" ] && cat "$name.bin.log"
    exit 1
  fi
  copies+=("$name.bin")
done

echo "== mapped readers emit identical tables over every copy"
for cmd in "report" "query" "query --what windows --limit 0" \
           "query --what bursts --limit 0" \
           "query --region A --what bursts --limit 0"; do
  "$MSAMPCTL" $cmd --dataset ref.bin > ref.txt
  for ds in "${copies[@]}"; do
    "$MSAMPCTL" $cmd --dataset "$ds" > got.txt
    if ! cmp -s ref.txt got.txt; then
      echo "MISMATCH: '$cmd' output differs between ref.bin and $ds"
      exit 1
    fi
  done
done
echo "DATASET DETERMINISM OK (${#CELLS[@]} cells, $ARGS)"
