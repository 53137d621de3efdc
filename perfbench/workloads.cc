#include "workloads.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common.h"  // bench/common.h: the figure benches' bench_config()
#include "proc.h"
#include "trace.h"
#include "util/rng.h"

namespace msamp::perfbench {
namespace {

constexpr const char* kPolicies = "dt,static,complete,burst-absorb,delay";
constexpr const char* kAlphas = "0.25,1,4";
constexpr int kSweepCells = 7;  // three DT alphas + one cell per other policy

/// One execution of a workload (possibly several processes).
struct Outcome {
  Exec cost;
  double windows = 0.0;  ///< rack windows the execution processed
  std::map<std::string, std::string> digests;  ///< output name -> digest
  std::string error;  ///< set when the execution failed
};

void fresh_dir(const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

/// Outcome of one process whose listed output files are digested.
Outcome run_checked(const Command& cmd, const std::string& what,
                    const std::vector<std::string>& outputs) {
  Outcome o;
  o.cost = run(cmd);
  if (!o.cost.ok()) {
    o.error = what + ": " + o.cost.describe() + " (see " +
              cmd.stderr_path.string() + ")";
    return o;
  }
  for (const std::string& name : outputs) {
    const std::string d = file_digest(cmd.cwd / name);
    if (d.empty()) {
      o.error = what + ": no output " + name;
      return o;
    }
    o.digests[name] = d;
  }
  return o;
}

class Workload {
 public:
  Workload(const RunOptions& options, const Programs& programs,
           std::uint64_t data_seed)
      : opt_(options),
        prog_(programs),
        seed_(data_seed),
        dir_(fs::absolute(options.out / options.workload)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Untimed preparation before set-up; returns an error or "".
  virtual std::string prepare() { return ""; }
  /// The zero-work invocation timed as setup_s.
  virtual Command setup_command() = 0;
  /// The untimed warm-up; its outputs are the run's reference.
  virtual Outcome reference() { return execute(); }
  virtual Outcome execute() = 0;
  /// End-of-run checks and extra facts.
  virtual void finish(RunResult*) {}

  const fs::path& dir() const { return dir_; }

 protected:
  /// A command running in a fresh directory `sub` under the workload's.
  Command command(const std::string& sub, std::vector<std::string> argv) {
    Command cmd;
    cmd.cwd = dir_ / sub;
    fresh_dir(cmd.cwd);
    cmd.argv = std::move(argv);
    cmd.stdout_path = cmd.cwd / "stdout.txt";
    cmd.stderr_path = cmd.cwd / "stderr.txt";
    return cmd;
  }

  /// The day configuration at `racks` per region and `hours`.
  fleet::FleetConfig config(int racks, int hours) const {
    fleet::FleetConfig cfg = day_config(opt_.scale, seed_, racks);
    cfg.hours = hours;
    return cfg;
  }

  double day_windows(int racks) const {
    return 2.0 * racks * opt_.scale.hours;
  }

  std::string lanes() const { return std::to_string(opt_.scale.lanes); }

  const RunOptions& opt_;
  const Programs& prog_;
  std::uint64_t seed_;
  fs::path dir_;
};

/// `day`: the in-process multi-lane generation path.
class DayWorkload : public Workload {
 public:
  using Workload::Workload;

  Command setup_command() override {
    return command("setup", fleet_argv(prog_, config(opt_.scale.racks, 0),
                                       opt_.scale.lanes, "dataset.bin"));
  }

  Outcome execute() override {
    Outcome o = run_checked(
        command("exec", fleet_argv(prog_, config(opt_.scale.racks, opt_.scale.hours),
                                   opt_.scale.lanes, "dataset.bin")),
        "msampctl fleet", {"dataset.bin"});
    o.windows = day_windows(opt_.scale.racks);
    return o;
  }
};

/// `cluster-faults`: the same day through worker processes with injected
/// kills; its reference is a `day` execution, so the two must agree.
class ClusterWorkload : public DayWorkload {
 public:
  ClusterWorkload(const RunOptions& options, const Programs& programs,
                  std::uint64_t data_seed)
      : DayWorkload(options, programs, data_seed),
        expected_(predict_fault_load(config(opt_.scale.racks, opt_.scale.hours),
                                     opt_.scale.lanes, opt_.scale.fault_rate)) {}

  Command setup_command() override {
    // One worker's zero-work invocation: what every shard attempt pays
    // before its first window.  The coordinator's own start is left out
    // because its poll loop made a zero-window cluster take anywhere from
    // 9 to 115 ms from run to run on a 4-core VM; it still shows in
    // wall_s, which spawns eight workers per execution.
    auto argv = msampctl_argv(prog_, "worker", config(opt_.scale.racks, 0));
    argv.insert(argv.end(), {"--threads", "1", "--shard", "0/" + lanes(), "--out",
                             "shard.bin"});
    return command("setup", argv);
  }

  Outcome reference() override { return DayWorkload::execute(); }

  Outcome execute() override {
    Outcome o = run_checked(
        command("exec", cluster_argv(prog_, config(opt_.scale.racks, opt_.scale.hours),
                                     opt_.scale.lanes, opt_.scale.fault_rate,
                                     "dataset.bin")),
        "msampctl cluster", {"dataset.bin"});
    o.windows = day_windows(opt_.scale.racks);
    if (!o.error.empty()) return o;
    seen_ = parse_coordinator_log(read_file(dir_ / "exec" / "stderr.txt"));
    if (seen_.attempts != expected_.attempts || seen_.failed != expected_.failed ||
        seen_.backoff_ms != expected_.backoff_ms) {
      o.error = "coordinator log shows " + std::to_string(seen_.attempts) +
                " attempts / " + std::to_string(seen_.failed) + " failed / " +
                std::to_string(seen_.backoff_ms) +
                " ms backoff; the fault plan predicts " +
                std::to_string(expected_.attempts) + " / " +
                std::to_string(expected_.failed) + " / " +
                std::to_string(expected_.backoff_ms);
    }
    return o;
  }

  void finish(RunResult* r) override {
    r->counts["cluster.attempts"] = seen_.attempts;
    r->counts["cluster.failed_attempts"] = seen_.failed;
    r->counts["cluster.backoff_ms"] = seen_.backoff_ms;
  }

 private:
  FaultLoad expected_;
  FaultLoad seen_;
};

/// `sweep`: the fluid rack under every buffer policy, one cell at a time.
class SweepWorkload : public Workload {
 public:
  using Workload::Workload;

  Command setup_command() override { return command("setup", argv(0)); }

  Outcome execute() override {
    Outcome o = run_checked(command("exec", argv(opt_.scale.hours)),
                            "msampctl sweep",
                            {"sw/sweep_summary.csv", "sw/sweep_contention_cdf.csv"});
    o.windows = kSweepCells * day_windows(opt_.scale.sweep_racks);
    return o;
  }

 private:
  std::vector<std::string> argv(int hours) const {
    auto a = msampctl_argv(prog_, "sweep", config(opt_.scale.sweep_racks, hours));
    a.insert(a.end(), {"--threads", lanes(), "--policies", kPolicies,
                       "--alphas", kAlphas, "--out-dir", "sw"});
    return a;
  }
};

/// `packet-rack`: packet-level windows on `lanes` threads in a child
/// msamp_bench; window i simulates seed mix_seed(data_seed, i).
class PacketWorkload : public Workload {
 public:
  using Workload::Workload;

  Command setup_command() override { return command("setup", argv(0)); }

  Outcome execute() override {
    const int n = opt_.scale.packet_windows;
    Outcome o = run_checked(command("exec", argv(n)), "packet-rack child",
                            {"windows.txt"});
    o.windows = n;
    if (!o.error.empty()) return o;
    o.digests.clear();
    std::istringstream in(read_file(dir_ / "exec" / "windows.txt"));
    std::string line;
    int i = 0;
    for (; std::getline(in, line); ++i) {
      o.digests["window" + std::to_string(i)] = text_digest(line);
    }
    if (i != n) o.error = "packet-rack child wrote " + std::to_string(i) + " windows";
    return o;
  }

 private:
  std::vector<std::string> argv(int windows) const {
    return {prog_.self, "--child", "packet-rack", "--seed", std::to_string(seed_),
            "--windows", std::to_string(windows), "--servers",
            std::to_string(opt_.scale.packet_servers), "--samples",
            std::to_string(opt_.scale.packet_samples), "--threads", lanes(),
            "--out", "windows.txt"};
  }
};

/// `figures`: every figure/table bench over the bench day, read path only.
class FiguresWorkload : public Workload {
 public:
  FiguresWorkload(const RunOptions& options, const Programs& programs,
                  std::uint64_t data_seed)
      : Workload(options, programs, data_seed),
        day_(fs::absolute(bench_day_path(options.out))) {}

  std::string prepare() override {
    std::string err;
    if (!ensure_bench_day(prog_, opt_.out, &err)) return err;
    day_digest_ = file_digest(day_);
    return "";
  }

  Command setup_command() override {
    // What every figure bench pays before its analysis: map the day and
    // validate its header and window directory.
    return command("setup", {prog_.msampctl, "query", "--dataset", day_.string(),
                             "--hour", "99"});
  }

  Outcome execute() override {
    Outcome o;
    const fs::path cwd = dir_ / "exec";
    fresh_dir(cwd);
    std::vector<std::string> order = prog_.figures;
    for (int pass = 0; pass < opt_.scale.figure_passes; ++pass) {
      // --seed cannot change the pinned bench day; it shuffles the order
      // the benches run in instead.
      util::Rng rng = util::Rng(opt_.seed).fork(static_cast<std::uint64_t>(
          executions_ * opt_.scale.figure_passes + pass));
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.uniform_int(i)]);
      }
      fresh_dir(cwd / "bench_out");
      std::map<std::string, std::string> digests;
      for (const std::string& name : order) {
        Command cmd;
        cmd.argv = {(prog_.figure_dir / name).string()};
        cmd.cwd = cwd;
        cmd.env = {"MSAMP_DATASET=" + day_.string(), "MSAMP_THREADS=" + lanes()};
        cmd.stdout_path = cwd / (name + ".stdout");
        cmd.stderr_path = cwd / (name + ".stderr");
        const Exec e = run(cmd);
        o.cost.wall_s += e.wall_s;
        o.cost.cpu_s += e.cpu_s;
        o.cost.maxrss_mb = std::max(o.cost.maxrss_mb, e.maxrss_mb);
        if (!e.ok()) {
          o.error = name + ": " + e.describe();
          return o;
        }
        digests[name + ".stdout"] = file_digest(cmd.stdout_path);
      }
      for (const auto& entry : fs::directory_iterator(cwd / "bench_out")) {
        digests["bench_out/" + entry.path().filename().string()] =
            file_digest(entry.path());
      }
      if (pass == 0) {
        o.digests = std::move(digests);
      } else if (digests != o.digests) {
        o.error = "figure outputs differ between passes of one execution";
        return o;
      }
    }
    ++executions_;
    o.windows = 2.0 * bench::bench_config().racks_per_region *
                bench::bench_config().hours * opt_.scale.figure_passes;
    return o;
  }

  void finish(RunResult* r) override {
    r->digests["bench_day.bin"] = day_digest_;
    if (file_digest(day_) != day_digest_) {
      r->fail("the figure benches rewrote the bench day " + day_.string());
    }
  }

 private:
  fs::path day_;
  std::string day_digest_;
  int executions_ = 0;
};

std::unique_ptr<Workload> make_workload(const RunOptions& o, const Programs& p,
                                        std::uint64_t data_seed) {
  if (o.workload == "day") return std::make_unique<DayWorkload>(o, p, data_seed);
  if (o.workload == "cluster-faults") {
    return std::make_unique<ClusterWorkload>(o, p, data_seed);
  }
  if (o.workload == "sweep") return std::make_unique<SweepWorkload>(o, p, data_seed);
  if (o.workload == "packet-rack") {
    return std::make_unique<PacketWorkload>(o, p, data_seed);
  }
  if (o.workload == "figures") {
    return std::make_unique<FiguresWorkload>(o, p, data_seed);
  }
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

/// perfbench/digests.txt: "model-version N", "wire-version N", then
/// "<workload> <output> <digest>" lines, valid for those versions only.
struct RecordedDigests {
  std::string model, wire;
  std::map<std::string, std::map<std::string, std::string>> by_workload;
};

RecordedDigests load_digests(const fs::path& path) {
  RecordedDigests d;
  std::istringstream in(read_file(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream words(line);
    std::string a, b, c;
    words >> a >> b >> c;
    if (a == "model-version") {
      d.model = b;
    } else if (a == "wire-version") {
      d.wire = b;
    } else if (!c.empty()) {
      d.by_workload[a][b] = c;
    }
  }
  return d;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"day", "cluster-faults", "sweep",
                                                 "packet-rack", "figures"};
  return names;
}

fs::path bench_day_path(const fs::path& out) { return out / "bench_day.bin"; }

int make_bench_day(const std::string& path) {
  fleet::FleetConfig cfg = bench::bench_config();
  cfg.threads = 4;
  fleet::shared_view(cfg, path);
  return 0;
}

bool ensure_bench_day(const Programs& programs, const fs::path& out,
                      std::string* error) {
  fs::create_directories(out);
  Command cmd;
  cmd.argv = {programs.self, "--child", "bench-day", "--out",
              fs::absolute(bench_day_path(out)).string()};
  cmd.stderr_path = fs::absolute(out / "bench_day.log");
  const Exec e = run(cmd);
  if (!e.ok()) *error = "generating the bench day: " + e.describe();
  return e.ok();
}

RunResult run_workload(const RunOptions& opt, const Programs& programs,
                       const Stamp& stamp) {
  RunResult r;
  r.workload = opt.workload;
  r.seed = opt.seed;
  r.data_seed = derive_data_seed(opt.seed, opt.scale);
  r.stamp_json = stamp.json(opt.scale.lanes);
  const auto w = make_workload(opt, programs, r.data_seed);
  fs::create_directories(w->dir());

  std::vector<double> wall, rate, cpu, rss, setup;
  const auto finish = [&] {
    if (r.attempted == 0) {  // nothing could run: one failed attempt
      r.attempted = r.failed = 1;
    }
    r.add("wall_s", "s", wall);
    r.add("windows_per_s", "1/s", rate);
    r.add("cpu_s", "s", cpu);
    r.add("peak_rss_mb", "MiB", rss);
    r.add("setup_s", "s", setup);
    return r;
  };

  if (const std::string err = w->prepare(); !err.empty()) {
    r.fail(err);
    return finish();
  }
  // Set-up invocations are spread over the run, one before each timed
  // execution (topped up to setup_reps at the end), so they sample the
  // same machine state the executions do.
  const auto set_up = [&] {
    const Command cmd = w->setup_command();
    const Exec e = run(cmd);
    if (!e.ok()) {
      r.fail("set-up: " + e.describe() + " (see " + cmd.stderr_path.string() + ")");
      return false;
    }
    setup.push_back(e.wall_s);
    return true;
  };

  const Outcome ref = w->reference();
  if (!ref.error.empty()) {
    r.fail("warm-up: " + ref.error);
    return finish();
  }
  r.digests = ref.digests;
  // Recorded digests pin the full-scale outputs at seed 42 (the figure
  // benches pin their own seed, so theirs hold for every --seed), for the
  // model and wire versions they were recorded at.
  const RecordedDigests recorded =
      load_digests(opt.root / "perfbench" / "digests.txt");
  const bool pinned = opt.scale.bench_day &&
                      (opt.seed == 42 || opt.workload == "figures") &&
                      recorded.model == stamp.get("model-version") &&
                      recorded.wire == stamp.get("wire-version") &&
                      recorded.by_workload.count(opt.workload) != 0;
  r.counts["digests_pinned"] = pinned ? 1 : 0;
  std::map<std::string, std::string> expected = ref.digests;
  std::string pinned_day;
  if (pinned) {
    expected = recorded.by_workload.at(opt.workload);
    if (const auto it = expected.find("bench_day.bin"); it != expected.end()) {
      pinned_day = it->second;
      expected.erase(it);
    }
    if (ref.digests != expected) {
      r.fail("warm-up outputs do not match the recorded seed-42 digests");
    }
  }

  const std::int64_t start = steady_ns();
  while (r.attempted < opt.min_executions ||
         static_cast<double>(steady_ns() - start) * 1e-9 < opt.seconds) {
    if (!set_up()) return finish();
    Outcome o = w->execute();
    ++r.attempted;
    if (o.error.empty() && o.digests != expected) {
      o.error = pinned ? "outputs do not match the recorded seed-42 digests"
                       : "outputs differ from the warm-up's";
    }
    if (!o.error.empty()) {
      ++r.failed;
      r.fail("execution " + std::to_string(r.attempted) + ": " + o.error);
      continue;
    }
    wall.push_back(o.cost.wall_s);
    rate.push_back(o.windows / o.cost.wall_s);
    cpu.push_back(o.cost.cpu_s);
    rss.push_back(o.cost.maxrss_mb);
  }
  while (static_cast<int>(setup.size()) < opt.setup_reps) {
    if (!set_up()) return finish();
  }
  w->finish(&r);
  if (!pinned_day.empty() && r.digests["bench_day.bin"] != pinned_day) {
    r.fail("the bench day does not match its recorded digest");
  }
  return finish();
}

}  // namespace msamp::perfbench
