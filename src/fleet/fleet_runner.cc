#include "fleet/fleet_runner.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <mutex>
#include <ranges>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analysis/burst_stats.h"
#include "analysis/contention.h"
#include "analysis/loss_assoc.h"
#include "fleet/dataset_view.h"
#include "fleet/fluid_rack.h"
#include "fleet/spill_sink.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "workload/diurnal.h"
#include "workload/placement.h"

namespace msamp::fleet {
namespace {

std::uint64_t fnv_step(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}

/// What one lane keeps from window to window: its re-armed rack and the
/// buffers of the per-server analysis.  A lane holds one aligned series
/// at a time, never a whole rack's, and allocates nothing large once it
/// has run a window of the day's shape.
struct Lane {
  FluidRack fluid;
  std::vector<core::BucketSample> series;  ///< the server being analysed
  std::vector<int> contention;             ///< the rack's, per sample
  std::vector<analysis::Burst> bursts;     ///< one per burst record
};

/// Simulates one window on `lane`'s rack (re-armed for it) and analyses
/// it one server at a time: each server's filter is aligned into the
/// lane's series, which feeds the rack's contention count, the server's
/// bursts, run stats and loss association and, in the busy hour, the
/// Figure 5 raster.  What needs the whole rack's contention (each burst's
/// peak, the rack run's summary, the exemplar choice) is filled after the
/// last server.  Depends only on (config, rack, hour) — the RNG forks
/// from the master seed keyed on (rack_id, hour), never on execution
/// order, and arming resets every window state — so windows can run on
/// any thread in any order.
WindowRecords simulate_window(Lane& lane, const FleetConfig& config,
                              const analysis::BurstDetectConfig& burst_cfg,
                              const workload::RackMeta& rack, int hour) {
  WindowRecords out;
  util::Rng rng(fnv_step(fnv_step(config.seed, static_cast<std::uint64_t>(
                                                   rack.rack_id) +
                                                   1000003),
                         static_cast<std::uint64_t>(hour) + 17));
  FluidRack& fluid = lane.fluid;
  fluid.arm(rack, config, hour, rng);
  const FluidRackTotals& res = fluid.simulate();
  const int servers = static_cast<int>(rack.server_kind.size());
  const std::size_t samples = fluid.num_samples();
  if (samples == 0) return out;
  out.has_run = true;

  RackRunRecord& rr = out.rack_run;
  rr.rack_id = static_cast<std::uint32_t>(rack.rack_id);
  rr.region = static_cast<std::uint8_t>(rack.region);
  rr.hour = static_cast<std::uint8_t>(hour);

  // Exemplar candidates for Figure 5 come from the busy hour.  Which
  // candidate actually lands in the Dataset is decided by the sink's
  // canonical-order fold: the first qualifying window wins, exactly as in
  // a serial hour-by-hour, rack-by-rack sweep.
  const bool busy_hour = hour == workload::kBusyHour;
  const std::int64_t threshold = analysis::burst_threshold_bytes(burst_cfg);
  ExemplarRun& ex = out.exemplar;
  if (busy_hour) {
    ex.raster.reserve(rack.server_kind.size() * samples);
  }

  std::vector<int>& contention = lane.contention;
  contention.assign(samples, 0);
  lane.bursts.clear();
  for (int s = 0; s < servers; ++s) {
    fluid.align(s, lane.series);
    const std::vector<core::BucketSample>& series = lane.series;
    analysis::add_contention(series, burst_cfg, contention);
    if (busy_hour) {
      for (const auto& x : series) {
        ex.raster.push_back(x.in_bytes > threshold ? 1 : 0);
      }
    }
    const auto bursts = analysis::detect_bursts(series, burst_cfg);
    const auto stats = analysis::server_run_stats(series, bursts, burst_cfg);
    ServerRunRecord sr;
    sr.rack_id = rr.rack_id;
    sr.region = rr.region;
    sr.hour = rr.hour;
    sr.bursty = stats.bursty ? 1 : 0;
    sr.avg_util = static_cast<float>(stats.avg_util);
    sr.util_inside = static_cast<float>(stats.util_inside);
    sr.util_outside = static_cast<float>(stats.util_outside);
    sr.bursts_per_sec = static_cast<float>(stats.bursts_per_sec);
    sr.conns_inside = static_cast<float>(stats.conns_inside);
    sr.conns_outside = static_cast<float>(stats.conns_outside);
    out.server_runs.push_back(sr);

    if (bursts.empty()) continue;
    const auto lossy = analysis::lossy_bursts(series, bursts, config.loss);
    for (std::size_t b = 0; b < bursts.size(); ++b) {
      const std::size_t lo = bursts[b].start;
      BurstRecord rec;
      rec.rack_id = rr.rack_id;
      rec.region = rr.region;
      rec.hour = rr.hour;
      rec.len_ms = static_cast<std::uint16_t>(bursts[b].len);
      rec.volume_bytes = static_cast<float>(bursts[b].volume_bytes);
      const double conns = util::canonical_sum_over(
          std::views::iota(lo, lo + bursts[b].len),
          [&](std::size_t k) { return series[k].connections; });
      rec.avg_conns =
          static_cast<float>(conns / static_cast<double>(bursts[b].len));
      rec.lossy = lossy[b] ? 1 : 0;
      out.bursts.push_back(rec);
      lane.bursts.push_back(bursts[b]);
    }
  }

  // The rack's contention is complete: each burst's peak, then the run's.
  for (std::size_t i = 0; i < out.bursts.size(); ++i) {
    const auto first =
        contention.begin() + static_cast<std::ptrdiff_t>(lane.bursts[i].start);
    const int max_cont = *std::max_element(
        first, first + static_cast<std::ptrdiff_t>(lane.bursts[i].len));
    out.bursts[i].max_contention = static_cast<std::uint16_t>(max_cont);
    out.bursts[i].contended = max_cont >= 2 ? 1 : 0;
  }
  const analysis::ContentionSummary cs =
      analysis::summarize_contention(contention);
  rr.usable = cs.usable() ? 1 : 0;
  rr.avg_contention = static_cast<float>(cs.avg);
  rr.min_active_contention = static_cast<std::uint16_t>(cs.min_active);
  rr.p90_contention = static_cast<std::uint16_t>(cs.p90);
  rr.max_contention = static_cast<std::uint16_t>(cs.max);
  rr.in_bytes = static_cast<double>(res.delivered_bytes);
  rr.drop_bytes = static_cast<double>(res.drop_bytes);
  rr.ecn_bytes = static_cast<double>(res.ecn_bytes);

  if (busy_hour) {
    const double high_cut = config.classify.high_threshold;
    if (cs.avg > 0.1 && cs.avg < high_cut / 4.0 && cs.max <= 4) {
      out.exemplar_kind |= kLowExemplar;
    }
    if (cs.avg > high_cut) {
      out.exemplar_kind |= kHighExemplar;
    }
    if (out.exemplar_kind == 0) {
      ex = ExemplarRun{};  // not a candidate: drop the raster
    } else {
      ex.rack_id = rr.rack_id;
      ex.avg_contention = rr.avg_contention;
      ex.num_servers = static_cast<std::uint16_t>(servers);
      ex.num_samples = static_cast<std::uint16_t>(samples);
      ex.contention.reserve(samples);
      for (int c : contention) {
        ex.contention.push_back(static_cast<std::uint16_t>(c));
      }
    }
  }
  return out;
}

}  // namespace

// Bump whenever the workload/placement/fluid model changes in a way that
// alters generated data for an unchanged config, so stale disk caches are
// regenerated.  The rules:
//  - model/behavior change (same config, different records) -> bump this;
//  - new config knob entering the data -> add it to fingerprint() below
//    (which re-keys every cache on its own; no version bump needed) —
//    msamp_lint's fingerprint-coverage rule fails the build until every
//    FleetConfig field is either hashed here or `// fingerprint-exempt:`
//    at its declaration (docs/STATIC_ANALYSIS.md);
//  - wire-format change -> bump kVersion in dataset.cc instead.
// (Parallelization and sharding intentionally did NOT bump this: any
// thread count or shard split produces the same bytes as the serial
// sweep, so old caches stay valid across execution strategies.)
constexpr std::uint64_t kModelVersion = 9;

std::uint64_t FleetConfig::fingerprint() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv_step(h, kModelVersion);
  h = fnv_step(h, seed);
  h = fnv_step(h, static_cast<std::uint64_t>(racks_per_region));
  h = fnv_step(h, static_cast<std::uint64_t>(servers_per_rack));
  h = fnv_step(h, static_cast<std::uint64_t>(hours));
  h = fnv_step(h, static_cast<std::uint64_t>(samples_per_run));
  h = fnv_step(h, static_cast<std::uint64_t>(warmup_ms));
  h = fnv_step(h, static_cast<std::uint64_t>(line_rate_gbps * 1000));
  h = fnv_step(h, static_cast<std::uint64_t>(buffer.total_bytes));
  h = fnv_step(h, static_cast<std::uint64_t>(buffer.alpha * 1000));
  h = fnv_step(h, static_cast<std::uint64_t>(buffer.ecn_threshold));
  h = fnv_step(h, static_cast<std::uint64_t>(buffer.reserve_per_queue));
  h = fnv_step(h, static_cast<std::uint64_t>(buffer.quadrants));
  h = fnv_step(h, static_cast<std::uint64_t>(buffer.burst_alpha_boost * 1000));
  h = fnv_step(h, static_cast<std::uint64_t>(buffer.delay.target_delay_ms * 1e6));
  h = fnv_step(h, static_cast<std::uint64_t>(buffer.delay.min_gain * 1000));
  h = fnv_step(h, static_cast<std::uint64_t>(buffer.delay.max_gain * 1000));
  h = fnv_step(h, static_cast<std::uint64_t>(buffer.delay.drain_gbps * 1000));
  h = fnv_step(h, static_cast<std::uint64_t>(filter_cpus));
  h = fnv_step(h, static_cast<std::uint64_t>(classify.high_threshold * 100));
  h = fnv_step(h, static_cast<std::uint64_t>(buffer.policy));
  h = fnv_step(h, fabric.enabled ? 1u : 0u);
  h = fnv_step(h, static_cast<std::uint64_t>(fabric.uplink_gbps));
  h = fnv_step(h, static_cast<std::uint64_t>(fabric.smoothing * 1000));
  h = fnv_step(h, static_cast<std::uint64_t>(rtt_ms * 1e6));
  h = fnv_step(h, static_cast<std::uint64_t>(mss));
  h = fnv_step(h, static_cast<std::uint64_t>(loss.rtt_shift_samples));
  h = fnv_step(h, static_cast<std::uint64_t>(loss.lag_samples));
  h = fnv_step(h, static_cast<std::uint64_t>(clocks.offset_stddev));
  h = fnv_step(h, static_cast<std::uint64_t>(clocks.offset_max));
  // `threads` is deliberately absent: thread count never changes the data
  // (and neither does the shard split — see docs/PERFORMANCE.md).
  return h;
}

void run_fleet(const FleetConfig& config, const ShardSpec& shard,
               WindowSink& sink, std::function<void(double)> progress) {
  if (!shard.valid()) {
    throw std::invalid_argument("invalid shard spec " +
                                std::to_string(shard.index) + "/" +
                                std::to_string(shard.count));
  }
  if (auto st = config.validate(); !st) {
    throw std::invalid_argument("invalid config: " + st.reason());
  }
  const std::vector<workload::RackMeta> racks = fleet_racks(config);
  const analysis::BurstDetectConfig burst_cfg = config.burst_config();

  // --- this shard's slice of the canonical window sequence ---
  // Window w covers hour (w / racks) and rack (w % racks): the same
  // hour-major, rack-minor order the serial sweep used.  Each window is
  // simulated independently (its RNG is keyed on (seed, rack_id, hour))
  // on whichever pool lane picks it up; completed windows are handed to
  // the sink strictly in canonical order.
  const std::size_t total_windows =
      racks.size() * static_cast<std::size_t>(config.hours);
  const std::size_t begin = shard.begin(total_windows);
  const std::size_t end = shard.end(total_windows);
  const std::size_t shard_windows = end - begin;

  // Windows are simulated in bounded chunks that fan out over the pool, so
  // peak memory is one chunk of window records, independent of shard (or
  // day) size.  Each lane re-arms one FluidRack for all its windows and
  // keeps one server's aligned series (an unarmed rack and an empty lane
  // hold no storage, so a run without windows allocates none).
  //
  // Commit: the lane that finishes the window at the chunk's cursor hands
  // it and every ready successor to the sink, under one mutex, so the sink
  // sees windows strictly in canonical order with no gaps — the bytes
  // cannot depend on which lane ran which window, or in what order.
  util::ThreadPool pool(config.threads);
  std::vector<Lane> lanes(static_cast<std::size_t>(pool.size()));
  const std::size_t chunk_windows =
      std::max<std::size_t>(static_cast<std::size_t>(pool.size()) * 8, 64);
  std::mutex commit_mu;
  std::size_t committed = 0;
  for (std::size_t chunk = begin; chunk < end; chunk += chunk_windows) {
    const std::size_t n = std::min(chunk_windows, end - chunk);
    std::vector<WindowRecords> slots(n);
    std::vector<unsigned char> ready(n, 0);
    std::size_t cursor = 0;
    pool.parallel_for(
        n, std::function<void(int, std::size_t)>([&](int lane,
                                                     std::size_t i) {
          const std::size_t w = chunk + i;
          const int hour = static_cast<int>(w / racks.size());
          const workload::RackMeta& rack = racks[w % racks.size()];
          slots[i] = simulate_window(lanes[static_cast<std::size_t>(lane)],
                                     config, burst_cfg, rack, hour);
          std::lock_guard<std::mutex> lock(commit_mu);
          ready[i] = 1;
          try {
            for (; cursor < n && ready[cursor]; ++cursor) {
              sink.on_window(chunk + cursor, std::move(slots[cursor]));
              // Serialized and strictly increasing: each commit bumps the
              // counter exactly once, and total/total is exactly 1.0.
              ++committed;
              if (progress) {
                progress(static_cast<double>(committed) /
                         static_cast<double>(shard_windows));
              }
            }
          } catch (...) {
            cursor = n;  // a failed sink receives no further window
            throw;
          }
        }));
  }
  if (progress && shard_windows == 0) progress(1.0);
}

Dataset run_fleet(const FleetConfig& config,
                  std::function<void(double)> progress) {
  DatasetBuilder builder(config);
  run_fleet(config, ShardSpec{}, builder, std::move(progress));
  return builder.take();
}

const DatasetView& shared_view(const FleetConfig& config,
                               const std::string& cache_path) {
  static std::mutex mu;
  static std::unique_ptr<DatasetView> cached;
  std::lock_guard<std::mutex> lock(mu);
  // The same config bytes, then the same fingerprint: fingerprint() only
  // hashes a config equal to one a file passed validate() with.
  const auto holds_day = [&config](const DatasetView& v) {
    return v.config().differing_field(config).empty() &&
           v.fingerprint() == config.fingerprint();
  };
  if (cached && cached->ok() && holds_day(*cached)) return *cached;
  // Reuse the cache file when it holds this day in full (a partial shard
  // file is never silently served); otherwise regenerate it through a
  // SpillSink (bounded RSS even at cluster scale).
  auto view = std::make_unique<DatasetView>();
  util::Status st = Dataset::open_mapped(cache_path, view.get());
  if (!st || !holds_day(*view) || !view->shard().full_range()) {
    SpillSink sink(config, ShardSpec{}, cache_path);
    run_fleet(config, ShardSpec{}, sink);
    st = sink.finalize();
    if (st) st = Dataset::open_mapped(cache_path, view.get());
    if (st && !holds_day(*view)) {
      st = util::Status::error(
          "freshly generated cache does not hold the requested day",
          cache_path);
    }
  }
  if (!st) throw std::runtime_error("shared_view: " + st.to_string());
  cached = std::move(view);
  return *cached;
}

std::uint64_t model_version() noexcept { return kModelVersion; }

}  // namespace msamp::fleet
