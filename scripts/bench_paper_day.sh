#!/usr/bin/env bash
# Generates the paper's measurement day (§5: ~1000 racks in each of two
# regions, 24 hourly runs of ~1.85 s at 1 ms) in pairs of runs: once in
# one process (`msampctl fleet --threads N`) and once across N single-lane
# worker processes (`msampctl cluster --workers N --threads 1`).  Pair i
# (from 1) runs `cluster` first when i is odd and `fleet` first when it is
# even, so that neither path always runs on a cold or a warm host.  Each
# pair's two outputs must be `cmp`-equal, and are deleted before the next
# pair starts.  Once every pair has passed, one record per run is appended
# to BENCH_paper_day.json: commit, host cores, path, pair, which path ran
# first, lanes, scale, seed, wall time, user+sys CPU, minor faults, the
# peak RSS of the largest process, and the output bytes.  Older records
# also carry `simd`, the SIMD path of a build that had more than one.  Each
# run is timed by python3's os.wait4, whose rusage covers the command and
# every descendant it reaped (the cluster's workers), and whose peak RSS
# is the largest of them.
#
#   scripts/bench_paper_day.sh [build-dir]     # default: build
#
# The day is fixed: 1000 racks/region x 24 h x 1850 samples, seed 42, in
# 3 pairs.  LANES (default 4) sets N; OUT (default BENCH_paper_day.json)
# and WORK (default <build-dir>/paper_day) are paths.  The commit is that
# of the source tree the build was configured from, with a -dirty suffix
# for uncommitted changes other than to BENCH_paper_day.json itself.  One
# pair takes about 5 minutes on a 4-vCPU host, so an invocation about 16
# minutes, and a pair needs ~4 GB of free disk under WORK; keep it out of
# check.sh.  Any change that claims a fleet gain reruns it.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build}
case "$BUILD" in /*) ;; *) BUILD="$PWD/$BUILD" ;; esac
LANES=${LANES:-4}
RACKS=1000
HOURS=24
SAMPLES=1850
SEED=42
PAIRS=3
OUT=${OUT:-$PWD/BENCH_paper_day.json}
WORK=${WORK:-$BUILD/paper_day}
MSAMPCTL="$BUILD/tools/msampctl"
[ -x "$MSAMPCTL" ] || { echo "error: $MSAMPCTL not built"; exit 1; }

SRC=$(sed -n 's/^CMAKE_HOME_DIRECTORY:INTERNAL=//p' "$BUILD/CMakeCache.txt")
COMMIT=$(git -C "$SRC" rev-parse --short=7 HEAD)
git -C "$SRC" diff --quiet HEAD -- . ':!BENCH_paper_day.json' ||
  COMMIT+=-dirty
SCALE=(--racks "$RACKS" --hours "$HOURS" --samples "$SAMPLES" --seed "$SEED")

rm -rf "$WORK"
mkdir -p "$WORK"
trap 'rm -rf "$WORK"' EXIT

# timed <log> <cmd...>: runs cmd with its output in <log> and prints one
# JSON object of its wall time and rusage; fails if cmd fails.
timed() {
  python3 - "$@" <<'PY'
import json, os, subprocess, sys, time
with open(sys.argv[1], "w") as log:
    t0 = time.monotonic()
    child = subprocess.Popen(sys.argv[2:], stdout=log, stderr=subprocess.STDOUT)
    _, status, ru = os.wait4(child.pid, 0)
    wall = time.monotonic() - t0
if os.waitstatus_to_exitcode(status) != 0:
    sys.exit("error: " + " ".join(sys.argv[2:4]) + " failed:\n" +
             open(sys.argv[1]).read()[-2000:])
print(json.dumps({
    "wall_s": round(wall, 2),
    "cpu_s": round(ru.ru_utime + ru.ru_stime, 2),
    "minor_faults": ru.ru_minflt,
    "peak_rss_mib": round(ru.ru_maxrss / 1024, 1),
}))
PY
}

# run_path <path>: times one path's run of the day into $WORK/<path>.bin
# and prints its rusage object.
run_path() {
  case "$1" in
    fleet) timed "$WORK/fleet.log" "$MSAMPCTL" fleet "${SCALE[@]}" \
             --threads "$LANES" --out "$WORK/fleet.bin" ;;
    cluster) timed "$WORK/cluster.log" "$MSAMPCTL" cluster "${SCALE[@]}" \
               --threads 1 --workers "$LANES" --out "$WORK/cluster.bin" \
               --shard-dir "$WORK/shards" ;;
  esac
}

echo "paper day: ${RACKS} racks/region x ${HOURS} h x ${SAMPLES} samples," \
     "seed ${SEED}, ${LANES} lanes, ${PAIRS} pairs, ${COMMIT}"
RUNS=()  # one "pair path first rusage-json bytes" line per run
declare -A RUSAGE
for ((pair = 1; pair <= PAIRS; pair++)); do
  if ((pair % 2 == 1)); then ORDER=(cluster fleet); else ORDER=(fleet cluster); fi
  for path in "${ORDER[@]}"; do
    RUSAGE[$path]=$(run_path "$path")
    echo "pair $pair $path: ${RUSAGE[$path]}"
  done
  cmp "$WORK/fleet.bin" "$WORK/cluster.bin"
  BYTES=$(stat -c %s "$WORK/fleet.bin")
  for path in fleet cluster; do
    RUNS+=("$pair $path ${ORDER[0]} ${RUSAGE[$path]} $BYTES")
  done
  rm -rf "$WORK"/fleet.bin "$WORK"/cluster.bin "$WORK"/shards
done

python3 - "$OUT" "${RUNS[@]}" <<PY
import json, os, sys
out = sys.argv[1]
records = json.load(open(out)) if os.path.exists(out) else []
for run in sys.argv[2:]:
    pair, path, first, rest = run.split(" ", 3)
    rusage, output_bytes = rest.rsplit(" ", 1)
    records.append({
        "commit": "$COMMIT", "host_cores": os.cpu_count(), "path": path,
        "pair": int(pair), "first": first, "lanes": $LANES,
        "racks_per_region": $RACKS, "hours": $HOURS, "samples": $SAMPLES,
        "seed": $SEED, **json.loads(rusage), "output_bytes": int(output_bytes)})
with open(out, "w") as f:
    f.write("[\n" + ",\n".join("  " + json.dumps(r) for r in records) +
            "\n]\n")
PY
echo "appended $((2 * PAIRS)) records to $OUT (each pair's outputs cmp-equal)"
