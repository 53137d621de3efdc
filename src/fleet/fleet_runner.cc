#include "fleet/fleet_runner.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <ranges>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/burst_stats.h"
#include "analysis/contention.h"
#include "analysis/loss_assoc.h"
#include "fleet/dataset_view.h"
#include "fleet/fluid_rack.h"
#include "fleet/spill_sink.h"
#include "util/spsc_ring.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "workload/diurnal.h"
#include "workload/placement.h"

namespace msamp::fleet {
namespace {

std::uint64_t fnv_step(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}

/// Captures a Figure-5-style exemplar from a sync run.
ExemplarRun make_exemplar(const core::SyncRun& sync,
                          const std::vector<int>& contention,
                          const analysis::BurstDetectConfig& cfg,
                          std::uint32_t rack_id, float avg) {
  ExemplarRun ex;
  ex.rack_id = rack_id;
  ex.avg_contention = avg;
  ex.num_servers = static_cast<std::uint16_t>(sync.num_servers());
  ex.num_samples = static_cast<std::uint16_t>(sync.num_samples());
  const std::int64_t threshold = analysis::burst_threshold_bytes(cfg);
  ex.raster.reserve(static_cast<std::size_t>(ex.num_servers) * ex.num_samples);
  for (const auto& series : sync.series) {
    for (const auto& s : series) {
      ex.raster.push_back(s.in_bytes > threshold ? 1 : 0);
    }
  }
  ex.contention.reserve(contention.size());
  for (int c : contention) {
    ex.contention.push_back(static_cast<std::uint16_t>(c));
  }
  return ex;
}

/// Simulates one window and runs the analysis pipeline on it.  Depends
/// only on (config, rack, hour) — the RNG forks from the master seed keyed
/// on (rack_id, hour), never on execution order — so windows can run on
/// any thread in any order.
WindowRecords simulate_window(const FleetConfig& config,
                              const analysis::BurstDetectConfig& burst_cfg,
                              const workload::RackMeta& rack, int hour) {
  WindowRecords out;
  util::Rng rng(fnv_step(fnv_step(config.seed, static_cast<std::uint64_t>(
                                                   rack.rack_id) +
                                                   1000003),
                         static_cast<std::uint64_t>(hour) + 17));
  FluidRack fluid(rack, config, hour, rng);
  FluidRackResult res = fluid.run();
  const core::SyncRun& sync = res.sync;
  if (sync.num_samples() == 0) return out;
  out.has_run = true;

  const std::vector<int> contention =
      analysis::contention_series(sync, burst_cfg);
  const analysis::ContentionSummary cs =
      analysis::summarize_contention(contention);

  RackRunRecord& rr = out.rack_run;
  rr.rack_id = static_cast<std::uint32_t>(rack.rack_id);
  rr.region = static_cast<std::uint8_t>(rack.region);
  rr.hour = static_cast<std::uint8_t>(hour);
  rr.usable = cs.usable() ? 1 : 0;
  rr.avg_contention = static_cast<float>(cs.avg);
  rr.min_active_contention = static_cast<std::uint16_t>(cs.min_active);
  rr.p90_contention = static_cast<std::uint16_t>(cs.p90);
  rr.max_contention = static_cast<std::uint16_t>(cs.max);
  rr.in_bytes = static_cast<double>(res.delivered_bytes);
  rr.drop_bytes = static_cast<double>(res.drop_bytes);
  rr.ecn_bytes = static_cast<double>(res.ecn_bytes);

  for (std::size_t s = 0; s < sync.num_servers(); ++s) {
    const auto& series = sync.series[s];
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
      BurstRecord rec;
      rec.rack_id = rr.rack_id;
      rec.region = rr.region;
      rec.hour = rr.hour;
      rec.len_ms = static_cast<std::uint16_t>(bursts[b].len);
      rec.volume_bytes = static_cast<float>(bursts[b].volume_bytes);
      const std::size_t b_lo = bursts[b].start;
      const std::size_t b_hi =
          std::min(bursts[b].start + bursts[b].len, contention.size());
      int max_cont = 0;
      for (std::size_t k = b_lo; k < b_hi; ++k) {
        max_cont = std::max(max_cont, contention[k]);
      }
      const double conns = util::canonical_sum_over(
          std::views::iota(b_lo, b_hi),
          [&](std::size_t k) { return series[k].connections; });
      rec.max_contention = static_cast<std::uint16_t>(max_cont);
      rec.avg_conns =
          static_cast<float>(conns / static_cast<double>(bursts[b].len));
      rec.contended = max_cont >= 2 ? 1 : 0;
      rec.lossy = lossy[b] ? 1 : 0;
      out.bursts.push_back(rec);
    }
  }

  // Exemplar candidates for Figure 5 (captured during the busy hour).
  // Which candidate actually lands in the Dataset is decided by the sink's
  // canonical-order fold: the first qualifying window wins, exactly as in
  // a serial hour-by-hour, rack-by-rack sweep.
  if (hour == workload::kBusyHour) {
    const double high_cut = config.classify.high_threshold;
    if (cs.avg > 0.1 && cs.avg < high_cut / 4.0 && cs.max <= 4) {
      out.exemplar_kind |= kLowExemplar;
    }
    if (cs.avg > high_cut) {
      out.exemplar_kind |= kHighExemplar;
    }
    if (out.exemplar_kind != 0) {
      out.exemplar = make_exemplar(sync, contention, burst_cfg, rr.rack_id,
                                   rr.avg_contention);
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

  util::ThreadPool pool(config.threads);
  const int lanes = pool.size();
  std::mutex progress_mu;
  std::size_t completed = 0;
  auto note_progress = [&] {
    if (!progress) return;
    // Serialized and strictly increasing: each completion bumps the
    // counter exactly once, and total/total is exactly 1.0.
    std::lock_guard<std::mutex> lock(progress_mu);
    ++completed;
    progress(static_cast<double>(completed) /
             static_cast<double>(shard_windows));
  };

  if (lanes == 1) {
    // Single lane: simulate and stream straight into the sink — no
    // consumer thread, no rings, and trivially the canonical order.
    for (std::size_t w = begin; w < end; ++w) {
      const int hour = static_cast<int>(w / racks.size());
      const workload::RackMeta& rack = racks[w % racks.size()];
      sink.on_window(w, simulate_window(config, burst_cfg, rack, hour));
      note_progress();
    }
    if (progress && shard_windows == 0) progress(1.0);
    return;
  }

  // Windows are simulated in bounded chunks: each chunk fans out over the
  // pool while a dedicated consumer thread merges completed windows into
  // the sink in canonical order.  Peak memory is one chunk of window
  // records, independent of shard (or day) size.
  //
  // Handoff: each lane owns one SPSC ring and pushes the *slot index* of
  // every window it finishes; the ring's release/acquire edge publishes
  // the slot's contents to the consumer, which marks indices ready and
  // advances a cursor so the sink sees windows strictly in canonical
  // order with no gaps — the bytes cannot depend on which lane ran which
  // window, or in what order.  The rings replace the old mutexed
  // collect-then-drain step on the caller thread.
  const std::size_t chunk_windows =
      std::max<std::size_t>(static_cast<std::size_t>(lanes) * 8, 64);
  constexpr std::size_t kRingCapacity = 256;
  std::vector<std::unique_ptr<util::SpscRing<std::size_t>>> rings;
  rings.reserve(static_cast<std::size_t>(lanes));
  for (int l = 0; l < lanes; ++l) {
    rings.push_back(
        std::make_unique<util::SpscRing<std::size_t>>(kRingCapacity));
  }

  for (std::size_t chunk = begin; chunk < end; chunk += chunk_windows) {
    const std::size_t n = std::min(chunk_windows, end - chunk);
    std::vector<WindowRecords> slots(n);
    // `abort` is the one cross-thread escape hatch: the consumer raises it
    // when the sink throws (so blocked producers stop spinning on a full
    // ring), and the producer side raises it when a body throws (so the
    // consumer stops waiting for windows that will never arrive).
    std::atomic<bool> abort{false};
    std::exception_ptr consumer_error;
    std::thread consumer([&] {
      try {
        std::vector<unsigned char> ready(n, 0);
        std::size_t cursor = 0;
        while (cursor < n && !abort.load(std::memory_order_acquire)) {
          bool popped = false;
          for (auto& ring : rings) {
            std::size_t i = 0;
            while (ring->try_pop(i)) {
              ready[i] = 1;
              popped = true;
            }
          }
          while (cursor < n && ready[cursor]) {
            sink.on_window(chunk + cursor, std::move(slots[cursor]));
            ++cursor;
          }
          if (!popped) std::this_thread::yield();
        }
      } catch (...) {
        consumer_error = std::current_exception();
        abort.store(true, std::memory_order_release);
      }
    });
    try {
      pool.parallel_for(
          n, std::function<void(int, std::size_t)>(
                 [&](int lane, std::size_t i) {
                   const std::size_t w = chunk + i;
                   const int hour = static_cast<int>(w / racks.size());
                   const workload::RackMeta& rack = racks[w % racks.size()];
                   slots[i] = simulate_window(config, burst_cfg, rack, hour);
                   note_progress();
                   while (!rings[static_cast<std::size_t>(lane)]->try_push(
                       std::size_t{i})) {
                     if (abort.load(std::memory_order_acquire)) return;
                     std::this_thread::yield();
                   }
                 }));
    } catch (...) {
      abort.store(true, std::memory_order_release);
      consumer.join();
      throw;
    }
    consumer.join();
    if (consumer_error) std::rethrow_exception(consumer_error);
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
  static std::uint64_t cached_fingerprint = 0;
  std::lock_guard<std::mutex> lock(mu);
  const std::uint64_t fingerprint = config.fingerprint();
  if (cached && cached->ok() && cached_fingerprint == fingerprint) {
    return *cached;
  }
  // Reuse the cache file when the fingerprint matches and it covers the
  // full day (a partial shard file is never silently served); otherwise
  // regenerate it through a SpillSink (bounded RSS even at cluster scale).
  auto view = std::make_unique<DatasetView>();
  util::Status st = Dataset::open_mapped(cache_path, view.get());
  if (!st || view->fingerprint() != fingerprint ||
      !view->shard().full_range()) {
    SpillSink sink(config, ShardSpec{}, cache_path);
    run_fleet(config, ShardSpec{}, sink);
    st = sink.finalize();
    if (st) st = Dataset::open_mapped(cache_path, view.get());
    if (st && view->fingerprint() != fingerprint) {
      st = util::Status::error(
          "freshly generated cache has the wrong fingerprint", cache_path);
    }
  }
  if (!st) throw std::runtime_error("shared_view: " + st.to_string());
  cached = std::move(view);
  cached_fingerprint = fingerprint;
  return *cached;
}

std::uint64_t model_version() noexcept { return kModelVersion; }

}  // namespace msamp::fleet
