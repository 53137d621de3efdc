#include "profile.h"

#include <algorithm>
#include <optional>

#include "analysis/burst_stats.h"
#include "analysis/contention.h"
#include "analysis/loss_assoc.h"
#include "cluster/sweep.h"
#include "core/clock_model.h"
#include "core/sync_controller.h"
#include "fleet/dataset_view.h"
#include "fleet/fleet_runner.h"
#include "fleet/fluid_rack.h"
#include "fleet/merge.h"
#include "fleet/spill_sink.h"
#include "json.h"
#include "net/buffer_policy.h"
#include "packet_window.h"
#include "proc.h"
#include "trace.h"
#include "util/simd/simd.h"
#include "workload/diurnal.h"

namespace msamp::perfbench {
namespace {

using Values = std::map<std::string, double>;

const net::BufferPolicy kPolicies[] = {
    net::BufferPolicy::kDynamicThreshold, net::BufferPolicy::kStaticPartition,
    net::BufferPolicy::kCompleteSharing, net::BufferPolicy::kBurstAbsorbDt,
    net::BufferPolicy::kDelayDriven};

/// The window RNG run_fleet uses: simulate_window (fleet_runner.cc) keys
/// it on (seed, rack_id, hour).  A drift here shows up as a failed
/// grid_start replay below.
util::Rng window_rng(std::uint64_t seed, int rack_id, int hour) {
  const auto step = [](std::uint64_t h, std::uint64_t v) {
    return (h ^ v) * 0x100000001b3ULL;
  };
  return util::Rng(step(step(seed, static_cast<std::uint64_t>(rack_id) + 1000003),
                        static_cast<std::uint64_t>(hour) + 17));
}

/// Total duration of the spans named `name` recorded at or after `first`.
std::int64_t span_ns(const Tracer& tr, const std::string& name, std::size_t first) {
  std::int64_t total = 0;
  const auto& spans = tr.spans();
  for (std::size_t i = first; i < spans.size(); ++i) {
    if (spans[i].name == name) total += spans[i].end_ns - spans[i].start_ns;
  }
  return total;
}

/// Tees each window into a shard's SpillSink and a full-day DatasetBuilder,
/// timing both; the copy the builder needs is timed apart so it can be
/// taken out of the pass time.
class TimedTee final : public fleet::WindowSink {
 public:
  explicit TimedTee(fleet::DatasetBuilder& builder) : builder_(builder) {}
  void on_window(std::size_t window, fleet::WindowRecords&& records) override {
    const std::int64_t t0 = steady_ns();
    fleet::WindowRecords copy = records;
    const std::int64_t t1 = steady_ns();
    builder_.on_window(window, std::move(copy));
    const std::int64_t t2 = steady_ns();
    spill->on_window(window, std::move(records));
    const std::int64_t t3 = steady_ns();
    copy_ns += t1 - t0;
    builder_ns += t2 - t1;
    spill_ns += t3 - t2;
  }

  fleet::WindowSink* spill = nullptr;
  std::int64_t copy_ns = 0, builder_ns = 0, spill_ns = 0;

 private:
  fleet::DatasetBuilder& builder_;
};

/// The public analysis calls simulate_window makes on one window, with
/// per-call nanoseconds added to `ns` (contention, detect_bursts,
/// server_run_stats, lossy_bursts).  Returns the bursts detected.
long analyze_window(const core::SyncRun& sync, const fleet::FleetConfig& cfg,
                    std::int64_t ns[4]) {
  const analysis::BurstDetectConfig burst_cfg = cfg.burst_config();
  long bursts = 0;
  std::int64_t t0 = steady_ns();
  const auto contention = analysis::contention_series(sync, burst_cfg);
  analysis::summarize_contention(contention);
  std::int64_t t1 = steady_ns();
  ns[0] += t1 - t0;
  for (const auto& series : sync.series) {
    t0 = steady_ns();
    const auto found = analysis::detect_bursts(series, burst_cfg);
    t1 = steady_ns();
    analysis::server_run_stats(series, found, burst_cfg);
    const std::int64_t t2 = steady_ns();
    if (!found.empty()) analysis::lossy_bursts(series, found, cfg.loss);
    const std::int64_t t3 = steady_ns();
    ns[1] += t1 - t0;
    ns[2] += t2 - t1;
    ns[3] += t3 - t2;
    bursts += static_cast<long>(found.size());
  }
  return bursts;
}

class Profile {
 public:
  Profile(const RunOptions& options, const Programs& programs,
          std::uint64_t data_seed, RunResult* result)
      : opt_(options),
        prog_(programs),
        cfg_(day_config(options.scale, data_seed, options.scale.trace_racks)),
        dir_(fs::absolute(options.out / options.workload / "trace")),
        r_(result) {}

  void prepare() {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    if (opt_.scale.bench_day) {
      std::string err;
      if (!ensure_bench_day(prog_, opt_.out, &err)) r_->fail(err);
    }
  }

  /// One pass over every layer; returns false if any check failed.
  bool pass(Values* v) {
    const std::size_t errors = r_->errors.size();
    pass_dir_ = dir_ / ("pass" + std::to_string(passes_++));
    fs::create_directories(pass_dir_);
    day(v);
    lanes(v);
    simd(v);
    policies(v);
    packet(v);
    cluster(v);
    figures(v);
    fs::remove_all(pass_dir_);
    return r_->errors.size() == errors;
  }

  Tracer& tracer() { return tr_; }
  const fs::path& dir() const { return dir_; }

 private:
  std::size_t windows() const {
    return static_cast<std::size_t>(2 * cfg_.racks_per_region * cfg_.hours);
  }
  double per_window(std::int64_t ns) const {
    return static_cast<double>(ns) / static_cast<double>(windows());
  }

  /// What the traced windows add up to.
  struct DayTotals {
    long bursts = 0, offgrid = 0, hosts = 0;
    std::int64_t analysis_ns[4] = {0, 0, 0, 0};
  };

  /// The combine_runs step of window `w`, replayed on its own: FluidRack
  /// forks the window RNG with 0x17 into its clock model and starts every
  /// host's filter at warmup + its offset, so the records' starts are known
  /// before the window runs.  Alignment cost does not depend on the bucket
  /// values, so the buckets are zeros of the real length.
  /// Returns the replayed grid: (grid_start, samples).
  std::pair<sim::SimTime, std::size_t> replay_window(
      std::size_t w, const std::vector<workload::RackMeta>& racks, DayTotals* t) {
    const int hour = static_cast<int>(w / racks.size());
    const workload::RackMeta& rack = racks[w % racks.size()];
    util::Rng rng = window_rng(cfg_.seed, rack.rack_id, hour);
    util::Rng clock_rng = rng.fork(0x17);
    const int n = static_cast<int>(rack.server_kind.size());
    const core::ClockModel clocks(cfg_.clocks, n, clock_rng);
    std::vector<core::RunRecord> records(static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      core::RunRecord& rec = records[static_cast<std::size_t>(s)];
      rec.host = static_cast<net::HostId>(s);
      rec.start = cfg_.warmup_ms * sim::kMillisecond + clocks.offset(s);
      rec.buckets.resize(static_cast<std::size_t>(cfg_.samples_per_run));
    }
    core::SyncRun replay;
    {
      Span s(&tr_, "core.combine_runs", static_cast<int>(w));
      replay = core::combine_runs(records);
    }
    for (const core::RunRecord& rec : records) {
      t->offgrid += (rec.start - replay.grid_start) % sim::kMillisecond != 0;
      ++t->hosts;
    }
    return {replay.grid_start, replay.num_samples()};
  }

  /// Window `w` of the traced day with spans around the FluidRack
  /// constructor and run and the analysis calls, in simulate_window's
  /// order.  Its SyncRun must have the replayed grid.
  void trace_window(std::size_t w, const std::vector<workload::RackMeta>& racks,
                    std::pair<sim::SimTime, std::size_t> grid, DayTotals* t) {
    const int win = static_cast<int>(w);
    const int hour = static_cast<int>(w / racks.size());
    const workload::RackMeta& rack = racks[w % racks.size()];
    Span window(&tr_, "window", win);
    std::optional<fleet::FluidRack> fluid;
    {
      Span s(&tr_, "fleet.fluid_rack.ctor", win);
      fluid.emplace(rack, cfg_, hour, window_rng(cfg_.seed, rack.rack_id, hour));
    }
    fleet::FluidRackResult res;
    {
      Span s(&tr_, "fleet.fluid_rack.run", win);
      res = fluid->run();
    }
    const core::SyncRun& sync = res.sync;
    if (grid != std::make_pair(sync.grid_start, sync.num_samples())) {
      r_->fail("combine_runs replay missed window " + std::to_string(w) +
               ": grid_start " + std::to_string(grid.first) + " vs " +
               std::to_string(sync.grid_start));
    }
    if (sync.num_samples() == 0) return;
    std::int64_t ns[4] = {0, 0, 0, 0};
    Span s(&tr_, "analysis", win);
    t->bursts += analyze_window(sync, cfg_, ns);
    tr_.add_counter(s.id(), "contention_ns", ns[0]);
    tr_.add_counter(s.id(), "detect_bursts_ns", ns[1]);
    tr_.add_counter(s.id(), "server_run_stats_ns", ns[2]);
    tr_.add_counter(s.id(), "lossy_bursts_ns", ns[3]);
    for (int k = 0; k < 4; ++k) t->analysis_ns[k] += ns[k];
  }

  /// The traced day at one lane, in four shards.  Each shard's windows are
  /// replayed (replay_window), run traced (trace_window), then run untraced
  /// through run_fleet(shard i/4), so the traced and untraced windows are
  /// measured close together in time.  The untraced windows
  /// go to the shard's SpillSink and to a whole-day DatasetBuilder; then
  /// come the builder's save, the shard finalizes, and the merge, which
  /// must reproduce the saved day byte for byte.
  void day(Values* v) {
    const std::size_t first = tr_.spans().size();
    std::vector<workload::RackMeta> racks;
    {
      Span s(&tr_, "workload.fleet_racks");
      racks = fleet::fleet_racks(cfg_);
    }
    DayTotals t;
    fleet::DatasetBuilder builder(cfg_);
    TimedTee tee(builder);
    std::int64_t untraced_ns = 0, finalize_ns = 0;
    std::vector<std::string> shards;
    constexpr std::uint32_t kShards = 4;
    for (std::uint32_t i = 0; i < kShards; ++i) {
      const fleet::ShardSpec shard{i, kShards};
      // The replays run first, so their copies stay out of the caches the
      // traced windows run in.
      std::vector<std::pair<sim::SimTime, std::size_t>> grids;
      for (std::size_t w = shard.begin(windows()); w < shard.end(windows()); ++w) {
        grids.push_back(replay_window(w, racks, &t));
      }
      for (std::size_t w = shard.begin(windows()); w < shard.end(windows()); ++w) {
        trace_window(w, racks, grids[w - shard.begin(windows())], &t);
      }
      shards.push_back((pass_dir_ / ("shard" + std::to_string(i) + ".bin")).string());
      fleet::SpillSink spill(cfg_, shard, shards.back());
      tee.spill = &spill;
      const std::int64_t t0 = steady_ns();
      fleet::run_fleet(cfg_, shard, tee);
      const std::int64_t t1 = steady_ns();
      const util::Status st = spill.finalize();
      finalize_ns += steady_ns() - t1;
      untraced_ns += t1 - t0;
      if (!st) r_->fail("SpillSink::finalize: " + st.to_string());
    }
    day_path_ = (pass_dir_ / "day.bin").string();
    const fleet::Dataset ds = builder.take();
    std::int64_t t0 = steady_ns();
    if (const util::Status st = ds.save(day_path_); !st) {
      r_->fail("Dataset::save: " + st.to_string());
    }
    const std::int64_t save_ns = steady_ns() - t0;
    const std::string merged = (pass_dir_ / "merged.bin").string();
    t0 = steady_ns();
    if (const util::Status st = fleet::merge_shards(shards, merged); !st) {
      r_->fail("merge_shards: " + st.to_string());
    }
    const std::int64_t merge_ns = steady_ns() - t0;
    day_digest_ = file_digest(day_path_);
    if (file_digest(merged) != day_digest_) {
      r_->fail("merged shards differ from the DatasetBuilder day");
    }
    fleet::DatasetView view;
    double summarize_ms = 0.0;
    if (const util::Status st = fleet::Dataset::open_mapped(day_path_, &view); !st) {
      r_->fail("open_mapped: " + st.to_string());
    } else {
      t0 = steady_ns();
      const auto cell = cluster::summarize_cell("trace", view);
      summarize_ms = static_cast<double>(steady_ns() - t0) / 1e6;
      if (cell.bursts <= 0) r_->fail("summarize_cell saw no bursts");
    }

    const std::int64_t ctor_ns = span_ns(tr_, "fleet.fluid_rack.ctor", first);
    const std::int64_t run_ns = span_ns(tr_, "fleet.fluid_rack.run", first);
    const std::int64_t replay_ns = span_ns(tr_, "core.combine_runs", first);
    window_1lane_ns_ = per_window(untraced_ns - tee.copy_ns - tee.builder_ns);
    const double covered = per_window(ctor_ns + run_ns + span_ns(tr_, "analysis", first) +
                                      tee.spill_ns);
    (*v)["workload.placement_ms"] = span_ns(tr_, "workload.fleet_racks", first) / 1e6;
    (*v)["fleet.fluid_rack.ctor_us"] = per_window(ctor_ns) / 1e3;
    (*v)["fleet.fluid_rack.run_ms"] = per_window(run_ns) / 1e6;
    (*v)["core.combine_runs_ms"] = per_window(replay_ns) / 1e6;
    (*v)["core.combine_runs.offgrid_share"] =
        static_cast<double>(t.offgrid) / static_cast<double>(std::max(t.hosts, 1L));
    (*v)["fleet.fluid_step_ms"] = per_window(run_ns - replay_ns) / 1e6;
    (*v)["analysis.contention_us"] = per_window(t.analysis_ns[0]) / 1e3;
    (*v)["analysis.detect_bursts_us"] = per_window(t.analysis_ns[1]) / 1e3;
    (*v)["analysis.server_run_stats_us"] = per_window(t.analysis_ns[2]) / 1e3;
    (*v)["analysis.lossy_bursts_us"] = per_window(t.analysis_ns[3]) / 1e3;
    (*v)["analysis.bursts_per_window"] =
        static_cast<double>(t.bursts) / static_cast<double>(windows());
    (*v)["fleet.window_ms_1lane"] = window_1lane_ns_ / 1e6;
    (*v)["fleet.distill_us"] = (window_1lane_ns_ - covered) / 1e3;
    (*v)["trace.coverage"] = covered / window_1lane_ns_;
    (*v)["fleet.sink.builder_us"] = per_window(tee.builder_ns) / 1e3;
    (*v)["fleet.dataset.save_ms"] = static_cast<double>(save_ns) / 1e6;
    (*v)["fleet.sink.spill_us"] = per_window(tee.spill_ns) / 1e3;
    (*v)["fleet.sink.finalize_ms"] = static_cast<double>(finalize_ns) / 1e6;
    (*v)["fleet.merge_shards_ms"] = static_cast<double>(merge_ns) / 1e6;
    (*v)["fleet.dataset_mb"] =
        static_cast<double>(fs::file_size(day_path_)) / (1024.0 * 1024.0);
    (*v)["cluster.summarize_cell_ms"] = summarize_ms;
  }

  /// The real CLI on the traced day at `lanes` threads: lane efficiency
  /// against the one-lane window time, and CPU per window.
  void lanes(Values* v) {
    Command cmd;
    cmd.cwd = pass_dir_;
    cmd.argv = fleet_argv(prog_, cfg_, opt_.scale.lanes, "lanes.bin");
    cmd.stderr_path = pass_dir_ / "lanes.stderr";
    // The first multi-lane child after the single-lane phases above ran up
    // to 3x slower than the next ones on a 4-core host, so an untimed one
    // goes first.
    run(cmd);
    Exec e;
    {
      Span s(&tr_, "msampctl.fleet");
      e = run(cmd);
    }
    if (!e.ok()) {
      r_->fail("msampctl fleet: " + e.describe());
      return;
    }
    if (file_digest(pass_dir_ / "lanes.bin") != day_digest_) {
      r_->fail("msampctl fleet output differs from the in-process day");
    }
    (*v)["fleet.lane_efficiency"] =
        static_cast<double>(windows()) * window_1lane_ns_ * 1e-9 /
        (opt_.scale.lanes * e.wall_s);
    (*v)["fleet.cpu_ms_per_window"] =
        e.cpu_s * 1e3 / static_cast<double>(windows());
  }

  /// The busy-hour windows of the traced day: each rack with its window RNG.
  std::vector<std::pair<workload::RackMeta, util::Rng>> busy_windows() const {
    std::vector<std::pair<workload::RackMeta, util::Rng>> out;
    for (const auto& rack : fleet::fleet_racks(cfg_)) {
      out.emplace_back(rack, window_rng(cfg_.seed, rack.rack_id, workload::kBusyHour));
    }
    return out;
  }

  /// Scalar vs active SIMD path on the busy-hour windows, alternating,
  /// with the outputs required identical across paths.
  void simd(Values* v) {
    const auto active = util::simd::active_path();
    const auto busy = busy_windows();
    std::int64_t fluid_ns[2] = {0, 0}, analysis_ns[2] = {0, 0};
    std::string digest[2];
    for (int round = 0; round < 2; ++round) {
      for (int p = 0; p < 2; ++p) {
        util::simd::force_path(p == 0 ? util::simd::IsaPath::kScalar : active);
        std::string bytes;
        for (const auto& [rack, rng] : busy) {
          const std::int64_t t0 = steady_ns();
          fleet::FluidRack fluid(rack, cfg_, workload::kBusyHour, rng);
          const fleet::FluidRackResult res = fluid.run();
          const std::int64_t t1 = steady_ns();
          std::int64_t ns[4] = {0, 0, 0, 0};
          const long bursts = analyze_window(res.sync, cfg_, ns);
          const std::int64_t t2 = steady_ns();
          fluid_ns[p] += t1 - t0;
          analysis_ns[p] += t2 - t1;
          bytes += std::to_string(res.drop_bytes) + "/" + std::to_string(bursts) + ";";
          for (const auto& series : res.sync.series) {
            for (const auto& sample : series) {
              bytes.append(reinterpret_cast<const char*>(&sample.in_bytes),
                           sizeof sample.in_bytes);
            }
          }
        }
        digest[p] = text_digest(bytes);
      }
    }
    util::simd::force_path(active);
    if (digest[0] != digest[1]) {
      r_->fail("scalar and " + std::string(util::simd::path_name(active)) +
               " SIMD paths disagree on the busy-hour windows");
    }
    (*v)["util.simd.fluid_speedup"] =
        static_cast<double>(fluid_ns[0]) / static_cast<double>(fluid_ns[1]);
    (*v)["util.simd.analysis_speedup"] =
        static_cast<double>(analysis_ns[0]) / static_cast<double>(analysis_ns[1]);
  }

  /// FluidRack::run on the busy-hour windows under each sharing policy.
  void policies(Values* v) {
    const auto busy = busy_windows();
    for (const net::BufferPolicy policy : kPolicies) {
      fleet::FleetConfig cfg = cfg_;
      cfg.buffer.policy = policy;
      const std::string name = "net.policy." + std::string(net::policy_name(policy));
      const std::size_t first = tr_.spans().size();
      for (const auto& [rack, rng] : busy) {
        fleet::FluidRack fluid(rack, cfg, workload::kBusyHour, rng);
        Span s(&tr_, name);
        fluid.run();
      }
      (*v)[name + ".run_ms"] = static_cast<double>(span_ns(tr_, name, first)) /
                               static_cast<double>(busy.size()) / 1e6;
    }
  }

  /// One packet-level window in process.
  void packet(Values* v) {
    const std::size_t first = tr_.spans().size();
    PacketWindowConfig pc;
    pc.servers = opt_.scale.packet_servers;
    pc.samples = opt_.scale.packet_samples;
    pc.seed = cfg_.seed;
    const PacketWindowResult res = run_packet_window(pc, &tr_);
    const double run_ns = static_cast<double>(span_ns(tr_, "sim.run", first));
    (*v)["sim.events_per_window"] = static_cast<double>(res.events);
    (*v)["sim.run_ms"] = run_ns / 1e6;
    (*v)["sim.events_per_s"] = static_cast<double>(res.events) / (run_ns * 1e-9);
    (*v)["workload.packet_setup_ms"] =
        static_cast<double>(span_ns(tr_, "workload.packet_setup", first)) / 1e6;
    (*v)["core.combine_runs_us_packet"] =
        static_cast<double>(span_ns(tr_, "core.combine_runs", first)) / 1e3;
    if (res.num_samples == 0) r_->fail("the packet window produced no samples");
  }

  /// The cluster coordinator on the traced day with injected kills; its
  /// output must equal the in-process day and its log the fault plan.
  void cluster(Values* v) {
    Command cmd;
    cmd.cwd = pass_dir_;
    cmd.argv = cluster_argv(prog_, cfg_, opt_.scale.lanes, opt_.scale.fault_rate,
                            "cluster.bin");
    cmd.stderr_path = pass_dir_ / "cluster.log";
    Exec e;
    {
      Span s(&tr_, "msampctl.cluster");
      e = run(cmd);
    }
    if (!e.ok()) {
      r_->fail("msampctl cluster: " + e.describe());
      return;
    }
    if (file_digest(pass_dir_ / "cluster.bin") != day_digest_) {
      r_->fail("msampctl cluster output differs from the in-process day");
    }
    const FaultLoad seen = parse_coordinator_log(read_file(cmd.stderr_path));
    const FaultLoad want =
        predict_fault_load(cfg_, opt_.scale.lanes, opt_.scale.fault_rate);
    if (seen.attempts != want.attempts || seen.failed != want.failed) {
      r_->fail("coordinator attempts differ from the fault plan");
    }
    (*v)["cluster.attempts"] = seen.attempts;
    (*v)["cluster.failed_attempts"] = seen.failed;
    r_->counts["cluster.backoff_ms"] = seen.backoff_ms;
  }

  /// Dataset::open_mapped on the day the figures read, then one pass of
  /// the figure benches, one span each.
  void figures(Values* v) {
    const std::string day =
        opt_.scale.bench_day ? fs::absolute(bench_day_path(opt_.out)).string()
                             : day_path_;
    const std::size_t first = tr_.spans().size();
    fleet::DatasetView view;
    {
      Span s(&tr_, "fleet.open_mapped");
      if (const util::Status st = fleet::Dataset::open_mapped(day, &view); !st) {
        r_->fail("open_mapped: " + st.to_string());
      }
    }
    (*v)["fleet.open_mapped_ms"] =
        static_cast<double>(span_ns(tr_, "fleet.open_mapped", first)) / 1e6;
    // At toy scale there is no bench day, so only the benches that read no
    // dataset run.
    std::vector<std::string> names = prog_.figures;
    if (!opt_.scale.bench_day) {
      names = {"bench_fig01_queue_share", "bench_fig03_multicast_sync",
               "bench_fig04_bursty_servers"};
    }
    const fs::path cwd = pass_dir_ / "figures";
    fs::create_directories(cwd / "bench_out");
    std::vector<double> ms;
    for (const std::string& name : names) {
      Command cmd;
      cmd.argv = {(prog_.figure_dir / name).string()};
      cmd.cwd = cwd;
      cmd.env = {"MSAMP_DATASET=" + day, "MSAMP_THREADS=" + std::to_string(opt_.scale.lanes)};
      Exec e;
      {
        Span s(&tr_, "figures." + name);
        e = run(cmd);
      }
      if (!e.ok()) r_->fail(name + ": " + e.describe());
      ms.push_back(e.wall_s * 1e3);
    }
    const Summary s = summarize(ms);
    (*v)["figures.binary_p50_ms"] = s.median;
    (*v)["figures.binary_max_ms"] = s.max;
  }

  const RunOptions& opt_;
  const Programs& prog_;
  const fleet::FleetConfig cfg_;
  const fs::path dir_;
  RunResult* r_;
  Tracer tr_;
  fs::path pass_dir_;
  int passes_ = 0;
  std::string day_path_, day_digest_;
  double window_1lane_ns_ = 0.0;
};

}  // namespace

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"workload.placement_ms", "ms"},
        {"fleet.fluid_rack.ctor_us", "us"},
        {"fleet.fluid_rack.run_ms", "ms"},
        {"core.combine_runs_ms", "ms"},
        {"core.combine_runs.offgrid_share", "share"},
        {"fleet.fluid_step_ms", "ms"},
        {"analysis.contention_us", "us"},
        {"analysis.detect_bursts_us", "us"},
        {"analysis.server_run_stats_us", "us"},
        {"analysis.lossy_bursts_us", "us"},
        {"analysis.bursts_per_window", "count"},
        {"fleet.window_ms_1lane", "ms"},
        {"fleet.distill_us", "us"},
        {"trace.coverage", "share"},
        {"fleet.lane_efficiency", "share"},
        {"fleet.cpu_ms_per_window", "ms"},
        {"fleet.sink.builder_us", "us"},
        {"fleet.dataset.save_ms", "ms"},
        {"fleet.sink.spill_us", "us"},
        {"fleet.sink.finalize_ms", "ms"},
        {"fleet.merge_shards_ms", "ms"},
        {"fleet.dataset_mb", "MiB"},
        {"util.simd.fluid_speedup", "ratio"},
        {"util.simd.analysis_speedup", "ratio"}};
    for (const net::BufferPolicy p : kPolicies) {
      m.emplace_back("net.policy." + std::string(net::policy_name(p)) + ".run_ms", "ms");
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"cluster.summarize_cell_ms", "ms"},
        {"cluster.attempts", "count"},
        {"cluster.failed_attempts", "count"},
        {"sim.events_per_window", "count"},
        {"sim.run_ms", "ms"},
        {"sim.events_per_s", "1/s"},
        {"workload.packet_setup_ms", "ms"},
        {"core.combine_runs_us_packet", "us"},
        {"fleet.open_mapped_ms", "ms"},
        {"figures.binary_p50_ms", "ms"},
        {"figures.binary_max_ms", "ms"}};
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return metrics;
}

RunResult run_profile(const RunOptions& opt, const Programs& programs,
                      const Stamp& stamp) {
  RunResult r;
  r.workload = opt.workload;
  r.trace = true;
  r.seed = opt.seed;
  r.data_seed = derive_data_seed(opt.seed, opt.scale);
  r.stamp_json = stamp.json(opt.scale.lanes);
  Profile profile(opt, programs, r.data_seed, &r);
  profile.prepare();

  std::map<std::string, std::vector<double>> values;
  const std::int64_t start = steady_ns();
  while (r.errors.empty() &&
         (r.attempted == 0 ||
          static_cast<double>(steady_ns() - start) * 1e-9 < opt.seconds)) {
    Values v;
    ++r.attempted;
    if (!profile.pass(&v)) {
      ++r.failed;
      continue;
    }
    for (const auto& [name, value] : v) values[name].push_back(value);
  }
  if (r.attempted == 0) r.attempted = r.failed = 1;
  for (const auto& [name, unit] : layer_metrics()) r.add(name, unit, values[name]);

  const Tracer& tr = profile.tracer();
  if (!tr.write_chrome_trace((profile.dir() / "trace.json").string())) {
    r.fail("cannot write trace.json");
  }
  std::string layers = "{\n  \"passes\": " + std::to_string(r.attempted) +
                       ",\n  \"self_ms_per_pass\": {";
  bool first = true;
  for (const auto& [name, ns] : tr.self_ns_by_name()) {
    layers += (first ? "\n    " : ",\n    ") + json::quote(name) + ": " +
              json::number(static_cast<double>(ns) / 1e6 / r.attempted);
    first = false;
  }
  layers += "\n  }\n}\n";
  if (!write_file(profile.dir() / "layers.json", layers)) {
    r.fail("cannot write layers.json");
  }
  return r;
}

}  // namespace msamp::perfbench
