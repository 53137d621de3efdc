// The end-to-end runs: each workload's programs run as child processes,
// timed from outside, with every output checked.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support.h"
#include "result.h"

namespace msamp::perfbench {

/// What one benchmark invocation was asked to do.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20.0;
  fs::path out = ".bench_build/perf";  ///< scratch and results
  fs::path root = ".";                 ///< checkout root (digests, BENCHMARK.json)
  Scale scale = Scale::full();
  int setup_reps = 9;
  int min_executions = 3;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs one workload: setup_reps zero-work invocations (setup_s), one
/// untimed warm-up, then timed executions until `seconds` have passed
/// (at least min_executions), checking every output.
RunResult run_workload(const RunOptions& options, const Programs& programs,
                       const Stamp& stamp);

/// Generates the figure benches' 96-rack day at `path` through the same
/// cache code the benches use (so its fingerprint always matches them);
/// a no-op when `path` already holds it.  The --child bench-day role.
int make_bench_day(const std::string& path);

/// Where the bench day lives under `out`, and a check that it is usable.
fs::path bench_day_path(const fs::path& out);
bool ensure_bench_day(const Programs& programs, const fs::path& out,
                      std::string* error);

}  // namespace msamp::perfbench
