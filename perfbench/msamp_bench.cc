// msamp_bench — the repository's benchmark (perfbench/PERF.md).
//
//   msamp_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--out DIR] [--root DIR]
//       NAME is day, cluster-faults, sweep, packet-rack or figures.  With
//       --trace 0 the workload's programs run as child processes, timed
//       from outside, with every output checked; with --trace 1 the
//       in-process traced profile runs instead.  Writes
//       DIR/NAME[/trace]/result.json and prints the metrics, the last
//       stdout line being {"correct", "attempted", "failed", "metrics"}.
//       Exit 0 on a correct run, 1 when a check failed, 2 on a usage error
//       or an unoptimized/sanitized build.
//
//   msamp_bench --smoke [--out DIR] [--root DIR]
//       Toy-scale run of the four generation workloads plus the profile;
//       fails unless every metric BENCHMARK.json names is reported with
//       its unit and trace.json parses.
//
//   msamp_bench --compare A B [--root DIR]
//       Medians, quartiles, pairs won and a verdict per workload x metric
//       for two directories of result.json files.
//
//   msamp_bench --child packet-rack|bench-day ...
//       Roles the benchmark runs as its own child processes.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>

#include "compare.h"
#include "json.h"
#include "packet_window.h"
#include "proc.h"
#include "trace.h"
#include "profile.h"
#include "util/flags.h"
#include "util/parallel_map.h"
#include "util/thread_pool.h"
#include "workloads.h"

using namespace msamp;
using namespace msamp::perfbench;

namespace {

int usage(const std::string& why) {
  std::cerr << "msamp_bench: " << why
            << "\nusage: msamp_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--out DIR] [--root DIR]\n"
               "       msamp_bench --smoke [--out DIR] [--root DIR]\n"
               "       msamp_bench --compare A B [--root DIR]\n"
               "see the header of perfbench/msamp_bench.cc\n";
  return 2;
}

int child_packet_rack(const util::Flags& flags) {
  const int windows = static_cast<int>(flags.num("windows", 32));
  util::ThreadPool pool(static_cast<int>(flags.num("threads", 4)));
  PacketWindowConfig cfg;
  cfg.servers = static_cast<int>(flags.num("servers", 16));
  cfg.samples = static_cast<int>(flags.num("samples", 25));
  const auto seed = static_cast<std::uint64_t>(flags.num("seed", 42));
  const auto results = util::parallel_map(
      pool, static_cast<std::size_t>(windows), [&](std::size_t i) {
        PacketWindowConfig c = cfg;
        c.seed = mix_seed(seed, i);
        return run_packet_window(c);
      });
  std::ofstream out(flags.str("out", "windows.txt"), std::ios::trunc);
  for (const PacketWindowResult& r : results) out << r.line() << "\n";
  return out.flush() ? 0 : 1;
}

/// The build guard and stamp every run starts with; nullopt (after a
/// message) when the build must not be timed.
std::optional<Stamp> guarded_stamp(const Programs& programs,
                                   const fs::path& out, int lanes) {
  fs::create_directories(out);
  Stamp stamp = read_stamp(programs, out);
  if (stamp.fields.empty()) {
    std::cerr << "msamp_bench: cannot run " << programs.msampctl << " version\n";
    return std::nullopt;
  }
  if (!stamp.optimized() || stamp.sanitized()) {
    std::cerr << "msamp_bench: refusing to time a build with optimized="
              << stamp.get("optimized") << " sanitizer=" << stamp.get("sanitizer")
              << "\n";
    return std::nullopt;
  }
  if (stamp.nproc < lanes) {
    std::cerr << "msamp_bench: warning: " << stamp.nproc << " CPU(s) for " << lanes
              << " lanes; timings will not compare with a " << lanes
              << "-CPU host\n";
  }
  return stamp;
}

fs::path result_path(const RunOptions& opt, bool trace) {
  return opt.out / opt.workload / (trace ? "trace/result.json" : "result.json");
}

int run_one(const RunOptions& opt, bool trace, const Programs& programs) {
  const auto stamp = guarded_stamp(programs, opt.out, opt.scale.lanes);
  if (!stamp) return 2;
  const RunResult r = trace ? run_profile(opt, programs, *stamp)
                            : run_workload(opt, programs, *stamp);
  fs::create_directories(result_path(opt, trace).parent_path());
  write_result_json(r, result_path(opt, trace));
  print_table(r);
  std::cout << contract_line(r) << std::endl;
  return r.correct() ? 0 : 1;
}

/// Every metric BENCHMARK.json lists for `section` must be in `r` with
/// the same unit.
void check_listed(const json::Value& benchmark, const char* section,
                  const RunResult& r, std::vector<std::string>* problems) {
  const json::Value* list = benchmark.get(section);
  if (list == nullptr) {
    problems->push_back(std::string("BENCHMARK.json has no ") + section);
    return;
  }
  for (const json::Value& want : list->array) {
    const std::string name = want.get("name") ? want.get("name")->string : "";
    const std::string unit = want.get("unit") ? want.get("unit")->string : "";
    const auto it = std::find_if(r.metrics.begin(), r.metrics.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it == r.metrics.end() || it->unit != unit || it->summary.n == 0) {
      problems->push_back(r.workload + (r.trace ? " [trace]" : "") +
                          ": no measured " + name + " in " + unit);
    }
  }
}

int run_smoke(RunOptions opt, const Programs& programs) {
  opt.scale = Scale::smoke();
  opt.seconds = 0.0;
  opt.setup_reps = 1;
  opt.min_executions = 1;
  const auto stamp = guarded_stamp(programs, opt.out, opt.scale.lanes);
  if (!stamp) return 2;
  std::string err;
  const auto benchmark = json::parse_file((opt.root / "BENCHMARK.json").string(), &err);
  if (!benchmark) {
    std::cerr << "msamp_bench: BENCHMARK.json: " << err << "\n";
    return 1;
  }
  std::vector<std::string> problems;
  const auto record = [&](const RunResult& r, bool trace) {
    print_table(r);
    const fs::path path = result_path(opt, trace);
    fs::create_directories(path.parent_path());
    if (!write_result_json(r, path) || !json::parse_file(path.string(), &err)) {
      problems.push_back(path.string() + " does not parse: " + err);
    }
    for (const std::string& e : r.errors) problems.push_back(r.workload + ": " + e);
    if (!r.correct()) problems.push_back(r.workload + ": run not correct");
    check_listed(*benchmark, trace ? "per_layer" : "end_to_end", r, &problems);
  };
  for (const std::string& name : workload_names()) {
    if (name == "figures") continue;  // needs the 96-rack bench day
    opt.workload = name;
    record(run_workload(opt, programs, *stamp), false);
  }
  opt.workload = "day";
  record(run_profile(opt, programs, *stamp), true);
  const fs::path trace = opt.out / "day" / "trace" / "trace.json";
  const auto doc = json::parse_file(trace.string(), &err);
  const json::Value* events = doc ? doc->get("traceEvents") : nullptr;
  if (events == nullptr || events->array.empty()) {
    problems.push_back(trace.string() + " is not a Chrome trace: " + err);
  }
  for (const std::string& p : problems) std::cout << "SMOKE FAILED: " << p << "\n";
  std::cout << (problems.empty() ? "smoke: ok\n" : "smoke: failed\n");
  return problems.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  adopt_orphans();
  const std::string mode = argc > 1 ? argv[1] : "";
  Programs programs = msamp::perfbench::programs(argv[0]);
  try {
    if (mode == "--child") {
      const std::string role = argc > 2 ? argv[2] : "";
      const util::Flags flags(argc, argv, 3,
                              {"seed", "windows", "servers", "samples", "threads", "out"});
      if (role == "packet-rack") return child_packet_rack(flags);
      if (role == "bench-day") return make_bench_day(flags.str("out", "bench_day.bin"));
      return usage("unknown child role '" + role + "'");
    }
    if (mode == "--compare") {
      if (argc < 4) return usage("--compare needs two directories");
      const util::Flags flags(argc, argv, 4, {"root"});
      return run_compare(argv[2], argv[3], flags.str("root", "."));
    }
    const bool smoke = mode == "--smoke";
    const util::Flags flags(argc, argv, smoke ? 2 : 1,
                            {"workload", "seed", "seconds", "trace", "out", "root"});
    // Every child is killed in time for the run to end within 175 s.
    if (!smoke) set_deadline_ns(steady_ns() + 175'000'000'000LL);
    RunOptions opt;
    opt.out = flags.str("out", smoke ? ".bench_build/smoke" : ".bench_build/perf");
    opt.root = flags.str("root", ".");
    if (smoke) return run_smoke(opt, programs);
    opt.workload = flags.str("workload", "");
    const auto& names = workload_names();
    if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
      return usage("--workload must be one of day, cluster-faults, sweep, "
                   "packet-rack, figures");
    }
    const long seed = flags.num("seed", 42);
    if (seed < 0) return usage("--seed must be non-negative");
    opt.seed = static_cast<std::uint64_t>(seed);
    opt.seconds = flags.real("seconds", opt.seconds);
    const long trace = flags.num("trace", 0);
    if (trace != 0 && trace != 1) return usage("--trace takes 0 or 1");
    return run_one(opt, trace == 1, programs);
  } catch (const util::UsageError& e) {
    return usage(e.what());
  }
}
