// Reference test for the fleet path's window: a test-local copy of the
// window as it was analysed on a whole SyncRun — FluidRack::run(), then
// the rack's contention series, each server's bursts, run stats and loss
// association, and the Figure 5 exemplar cut from the finished run — is
// driven beside run_fleet, and every WindowRecords field must match,
// floats bit for bit.  Both sides align through FluidRack, so known
// answers pin run() itself: a digest of its SyncRun for a handful of
// windows, recorded from the combine_runs-based rack.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ranges>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/burst_stats.h"
#include "analysis/contention.h"
#include "analysis/loss_assoc.h"
#include "core/clock_model.h"
#include "fleet/fleet_runner.h"
#include "fleet/fluid_rack.h"
#include "util/stats.h"
#include "workload/diurnal.h"

namespace msamp::fleet {
namespace {

// ---- The reference window ----

std::uint64_t fnv_step(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}

/// The window's RNG, keyed on (seed, rack_id, hour) as run_fleet keys it.
util::Rng window_rng(const FleetConfig& config, const workload::RackMeta& rack,
                     int hour) {
  return util::Rng(fnv_step(
      fnv_step(config.seed, static_cast<std::uint64_t>(rack.rack_id) + 1000003),
      static_cast<std::uint64_t>(hour) + 17));
}

ExemplarRun ref_exemplar(const core::SyncRun& sync,
                         const std::vector<int>& contention,
                         const analysis::BurstDetectConfig& cfg,
                         std::uint32_t rack_id, float avg) {
  ExemplarRun ex;
  ex.rack_id = rack_id;
  ex.avg_contention = avg;
  ex.num_servers = static_cast<std::uint16_t>(sync.num_servers());
  ex.num_samples = static_cast<std::uint16_t>(sync.num_samples());
  const std::int64_t threshold = analysis::burst_threshold_bytes(cfg);
  for (const auto& series : sync.series) {
    for (const auto& s : series) {
      ex.raster.push_back(s.in_bytes > threshold ? 1 : 0);
    }
  }
  for (int c : contention) {
    ex.contention.push_back(static_cast<std::uint16_t>(c));
  }
  return ex;
}

WindowRecords ref_window(FluidRack& fluid, const FleetConfig& config,
                         const workload::RackMeta& rack, int hour) {
  const analysis::BurstDetectConfig burst_cfg = config.burst_config();
  WindowRecords out;
  fluid.arm(rack, config, hour, window_rng(config, rack, hour));
  const FluidRackResult& res = fluid.run();
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

  for (const auto& series : sync.series) {
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

  if (hour == workload::kBusyHour) {
    const double high_cut = config.classify.high_threshold;
    if (cs.avg > 0.1 && cs.avg < high_cut / 4.0 && cs.max <= 4) {
      out.exemplar_kind |= kLowExemplar;
    }
    if (cs.avg > high_cut) {
      out.exemplar_kind |= kHighExemplar;
    }
    if (out.exemplar_kind != 0) {
      out.exemplar = ref_exemplar(sync, contention, burst_cfg, rr.rack_id,
                                  rr.avg_contention);
    }
  }
  return out;
}

// ---- Bit-exact comparison ----

template <typename T>
std::uint64_t bits(T v) {
  if constexpr (std::is_same_v<T, float>) {
    return std::bit_cast<std::uint32_t>(v);
  } else if constexpr (std::is_same_v<T, double>) {
    return std::bit_cast<std::uint64_t>(v);
  } else {
    return static_cast<std::uint64_t>(v);
  }
}

/// Records the first field that differs, by name.
class Diff {
 public:
  template <typename T>
  void field(const std::string& name, T got, T want) {
    if (!first_.empty() || bits(got) == bits(want)) return;
    first_ = name + ": " + std::to_string(got) + " vs " + std::to_string(want);
  }

  template <typename T>
  void vec(const std::string& name, const std::vector<T>& got,
           const std::vector<T>& want) {
    field(name + ".size", got.size(), want.size());
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      field(name + "[" + std::to_string(i) + "]", got[i], want[i]);
    }
  }

  const std::string& first() const { return first_; }

 private:
  std::string first_;
};

void compare(Diff& d, const std::string& at, const RackRunRecord& g,
             const RackRunRecord& w) {
  d.field(at + "rack_id", g.rack_id, w.rack_id);
  d.field(at + "region", g.region, w.region);
  d.field(at + "hour", g.hour, w.hour);
  d.field(at + "usable", g.usable, w.usable);
  d.field(at + "avg_contention", g.avg_contention, w.avg_contention);
  d.field(at + "min_active_contention", g.min_active_contention,
          w.min_active_contention);
  d.field(at + "p90_contention", g.p90_contention, w.p90_contention);
  d.field(at + "max_contention", g.max_contention, w.max_contention);
  d.field(at + "in_bytes", g.in_bytes, w.in_bytes);
  d.field(at + "drop_bytes", g.drop_bytes, w.drop_bytes);
  d.field(at + "ecn_bytes", g.ecn_bytes, w.ecn_bytes);
}

void compare(Diff& d, const std::string& at, const ServerRunRecord& g,
             const ServerRunRecord& w) {
  d.field(at + "rack_id", g.rack_id, w.rack_id);
  d.field(at + "region", g.region, w.region);
  d.field(at + "hour", g.hour, w.hour);
  d.field(at + "bursty", g.bursty, w.bursty);
  d.field(at + "avg_util", g.avg_util, w.avg_util);
  d.field(at + "util_inside", g.util_inside, w.util_inside);
  d.field(at + "util_outside", g.util_outside, w.util_outside);
  d.field(at + "bursts_per_sec", g.bursts_per_sec, w.bursts_per_sec);
  d.field(at + "conns_inside", g.conns_inside, w.conns_inside);
  d.field(at + "conns_outside", g.conns_outside, w.conns_outside);
}

void compare(Diff& d, const std::string& at, const BurstRecord& g,
             const BurstRecord& w) {
  d.field(at + "rack_id", g.rack_id, w.rack_id);
  d.field(at + "region", g.region, w.region);
  d.field(at + "hour", g.hour, w.hour);
  d.field(at + "len_ms", g.len_ms, w.len_ms);
  d.field(at + "volume_bytes", g.volume_bytes, w.volume_bytes);
  d.field(at + "max_contention", g.max_contention, w.max_contention);
  d.field(at + "avg_conns", g.avg_conns, w.avg_conns);
  d.field(at + "contended", g.contended, w.contended);
  d.field(at + "lossy", g.lossy, w.lossy);
}

/// Every field of two windows; empty when they match.
std::string window_diff(const WindowRecords& got, const WindowRecords& want) {
  Diff d;
  d.field("has_run", got.has_run, want.has_run);
  compare(d, "rack_run.", got.rack_run, want.rack_run);
  d.field("server_runs.size", got.server_runs.size(), want.server_runs.size());
  for (std::size_t i = 0;
       i < std::min(got.server_runs.size(), want.server_runs.size()); ++i) {
    compare(d, "server_runs[" + std::to_string(i) + "].", got.server_runs[i],
            want.server_runs[i]);
  }
  d.field("bursts.size", got.bursts.size(), want.bursts.size());
  for (std::size_t i = 0; i < std::min(got.bursts.size(), want.bursts.size());
       ++i) {
    compare(d, "bursts[" + std::to_string(i) + "].", got.bursts[i],
            want.bursts[i]);
  }
  d.field("exemplar_kind", got.exemplar_kind, want.exemplar_kind);
  const ExemplarRun& ge = got.exemplar;
  const ExemplarRun& we = want.exemplar;
  d.field("exemplar.rack_id", ge.rack_id, we.rack_id);
  d.field("exemplar.avg_contention", ge.avg_contention, we.avg_contention);
  d.field("exemplar.num_servers", ge.num_servers, we.num_servers);
  d.field("exemplar.num_samples", ge.num_samples, we.num_samples);
  d.vec("exemplar.raster", ge.raster, we.raster);
  d.vec("exemplar.contention", ge.contention, we.contention);
  return d.first();
}

// ---- Driving run_fleet beside the reference ----

class CaptureSink : public WindowSink {
 public:
  void on_window(std::size_t window, WindowRecords&& records) override {
    windows.push_back(window);
    captured.push_back(std::move(records));
  }

  std::vector<std::size_t> windows;
  std::vector<WindowRecords> captured;
};

/// What the compared windows held, so a case can show it reached the
/// paths it means to cover.
struct Seen {
  std::size_t windows = 0, runs = 0, bursts = 0, lossy = 0, contended = 0;
  std::uint8_t exemplar_kinds = 0;
};

/// Runs `shard` of `config` through run_fleet on `threads` lanes and
/// compares each window with the reference, computed on one rack re-armed
/// in canonical order.
Seen expect_reference(FleetConfig config, int threads, ShardSpec shard = {}) {
  config.threads = threads;
  CaptureSink sink;
  run_fleet(config, shard, sink);
  const std::vector<workload::RackMeta> racks = fleet_racks(config);
  const std::size_t total =
      racks.size() * static_cast<std::size_t>(config.hours);
  const std::size_t begin = shard.begin(total);
  EXPECT_EQ(sink.windows.size(), shard.end(total) - begin);
  Seen seen;
  FluidRack fluid;
  for (std::size_t i = 0; i < sink.windows.size(); ++i) {
    const std::size_t w = sink.windows[i];
    EXPECT_EQ(w, begin + i);
    const int hour = static_cast<int>(w / racks.size());
    const WindowRecords want =
        ref_window(fluid, config, racks[w % racks.size()], hour);
    const WindowRecords& got = sink.captured[i];
    const std::string diff = window_diff(got, want);
    EXPECT_TRUE(diff.empty()) << "window " << w << " at " << threads
                              << " lanes: " << diff;
    ++seen.windows;
    seen.runs += got.has_run ? 1 : 0;
    seen.bursts += got.bursts.size();
    for (const BurstRecord& b : got.bursts) {
      seen.lossy += b.lossy;
      seen.contended += b.contended;
    }
    seen.exemplar_kinds |= got.exemplar_kind;
  }
  return seen;
}

/// The shard of `config`'s day that holds only the busy hour, when it is
/// the last hour.
ShardSpec busy_hour_only(const FleetConfig& config) {
  EXPECT_EQ(config.hours, workload::kBusyHour + 1);
  return {.index = static_cast<std::uint32_t>(workload::kBusyHour),
          .count = static_cast<std::uint32_t>(config.hours)};
}

FleetConfig small_day() {
  FleetConfig cfg;
  cfg.seed = 7;
  cfg.racks_per_region = 2;
  cfg.servers_per_rack = 24;
  cfg.hours = 2;
  cfg.samples_per_run = 120;
  cfg.warmup_ms = 20;
  return cfg;
}

TEST(WindowReference, EveryPolicyAndTheFabricStage) {
  // The busy hour's racks (the last of seven hours), on a buffer an
  // eighth of the default, lose bytes under every policy.
  for (int p = 0; p < net::kNumBufferPolicies; ++p) {
    for (const bool fabric : {false, true}) {
      if (fabric && p != 0) continue;
      FleetConfig cfg = small_day();
      cfg.racks_per_region = 4;
      cfg.servers_per_rack = 46;
      cfg.hours = workload::kBusyHour + 1;
      cfg.buffer.total_bytes /= 8;
      cfg.buffer.policy = static_cast<net::BufferPolicy>(p);
      cfg.fabric.enabled = fabric;
      for (const int threads : {1, 4}) {
        SCOPED_TRACE("policy " + std::to_string(p) +
                     (fabric ? ", fabric, " : ", ") +
                     std::to_string(threads) + " lanes");
        const Seen seen = expect_reference(cfg, threads, busy_hour_only(cfg));
        EXPECT_EQ(seen.runs, seen.windows);
        EXPECT_GT(seen.bursts, 0u);
        EXPECT_GT(seen.lossy, 0u);
        EXPECT_GT(seen.contended, 0u);
      }
    }
  }
}

TEST(WindowReference, BusyHourExemplarsOfBothKinds) {
  // Only the busy hour's windows: the last of seven hours.  Full racks
  // at a 2.5 split put some racks above it and some well below.
  FleetConfig cfg = small_day();
  cfg.racks_per_region = 6;
  cfg.servers_per_rack = 46;
  cfg.hours = workload::kBusyHour + 1;
  cfg.classify.high_threshold = 2.5;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " lanes");
    const Seen seen = expect_reference(cfg, threads, busy_hour_only(cfg));
    EXPECT_EQ(seen.windows, 12u);
    EXPECT_EQ(seen.exemplar_kinds, kLowExemplar | kHighExemplar);
  }
}

TEST(WindowReference, EdgeShapes) {
  struct Case {
    const char* what;
    int servers, samples, warmup;
  };
  // With no warm-up, a host whose clock runs behind re-latches its start
  // on the second step (see FluidRack::simulate()); zero samples or servers
  // leave no grid, so those windows have no run.
  const Case cases[] = {{"0 samples", 24, 0, 20},   {"1 sample", 24, 1, 20},
                        {"2 samples", 24, 2, 0},    {"no warm-up", 24, 120, 0},
                        {"0 servers", 0, 120, 20},  {"1 server", 1, 120, 20},
                        {"1 server, no warm-up", 1, 40, 0}};
  for (const Case& c : cases) {
    FleetConfig cfg = small_day();
    cfg.servers_per_rack = c.servers;
    cfg.samples_per_run = c.samples;
    cfg.warmup_ms = c.warmup;
    cfg.hours = workload::kBusyHour + 1;
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(c.what) + ", " + std::to_string(threads) +
                   " lanes");
      const Seen seen = expect_reference(cfg, threads);
      EXPECT_EQ(seen.windows, 4u * static_cast<std::size_t>(cfg.hours));
      if (c.servers == 0 || c.samples == 0) {
        EXPECT_EQ(seen.runs, 0u);
      } else if (c.samples > 2) {
        EXPECT_EQ(seen.runs, seen.windows);
      }
    }
  }
}

// ---- Known answers for run() ----

/// FNV-1a over the run's grid and every sample's fields.
std::uint64_t sync_digest(const core::SyncRun& sync) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto put = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  };
  put(static_cast<std::uint64_t>(sync.grid_start));
  put(static_cast<std::uint64_t>(sync.interval));
  put(sync.num_servers());
  put(sync.num_samples());
  for (const net::HostId host : sync.hosts) {
    put(static_cast<std::uint64_t>(host));
  }
  for (const auto& series : sync.series) {
    for (const core::BucketSample& s : series) {
      put(static_cast<std::uint64_t>(s.in_bytes));
      put(static_cast<std::uint64_t>(s.in_retx_bytes));
      put(static_cast<std::uint64_t>(s.out_bytes));
      put(static_cast<std::uint64_t>(s.out_retx_bytes));
      put(static_cast<std::uint64_t>(s.in_ecn_bytes));
      put(std::bit_cast<std::uint64_t>(s.connections));
    }
  }
  return h;
}

workload::RackMeta make_rack(int servers, workload::TaskKind kind,
                             double intensity) {
  workload::RackMeta rack;
  rack.rack_id = 3;
  rack.region = workload::RegionId::kRegA;
  rack.intensity = intensity;
  rack.server_service.assign(static_cast<std::size_t>(servers), 0);
  rack.server_kind.assign(static_cast<std::size_t>(servers), kind);
  return rack;
}

TEST(WindowReference, RunKnownAnswers) {
  struct Case {
    const char* what;
    int servers, samples, warmup;
    net::BufferPolicy policy;
    bool fabric;
    std::uint64_t digest;
  };
  using net::BufferPolicy;
  // Digests of run().sync recorded from the combine_runs-based rack
  // (every host's filter read into a RunRecord, then combine_runs).
  const Case cases[] = {
      {"no warm-up", 12, 150, 0, BufferPolicy::kDynamicThreshold, false,
       0x43ebbfa98b9adda5ULL},
      {"1 server", 1, 150, 20, BufferPolicy::kDynamicThreshold, false,
       0x20ca962baa258aadULL},
      {"0 samples", 12, 0, 20, BufferPolicy::kDynamicThreshold, false,
       0x217c72c7a13c5450ULL},
      {"fabric", 46, 150, 20, BufferPolicy::kDynamicThreshold, true,
       0x760f4e8f5d84ad94ULL},
      {"dt", 46, 150, 20, BufferPolicy::kDynamicThreshold, false,
       0xc39075b23a572b42ULL},
      {"static", 46, 150, 20, BufferPolicy::kStaticPartition, false,
       0x686c51cc135c3d7fULL},
      {"complete", 46, 150, 20, BufferPolicy::kCompleteSharing, false,
       0xd6a20763b3604896ULL},
      {"burst-absorb", 46, 150, 20, BufferPolicy::kBurstAbsorbDt, false,
       0xed9677422608a925ULL},
      {"delay", 46, 150, 20, BufferPolicy::kDelayDriven, false,
       0x25b4d3fd65de6665ULL},
  };
  FluidRack fluid;  // re-armed per case, as a lane re-arms it
  for (const Case& c : cases) {
    FleetConfig cfg;
    cfg.samples_per_run = c.samples;
    cfg.warmup_ms = c.warmup;
    // A small buffer and DT's alpha at 1/2, so that every policy binds
    // and complete sharing differs from DT.
    cfg.buffer.total_bytes /= 8;
    cfg.buffer.alpha = 0.5;
    cfg.buffer.policy = c.policy;
    cfg.fabric.enabled = c.fabric;
    const auto rack = make_rack(c.servers, workload::TaskKind::kCache, 4.0);
    util::Rng rng(0x5eed + static_cast<std::uint64_t>(c.servers));
    fluid.arm(rack, cfg, workload::kBusyHour, rng);
    const core::SyncRun& sync = fluid.run().sync;
    EXPECT_EQ(sync_digest(sync), c.digest)
        << c.what << ": 0x" << std::hex << sync_digest(sync);
    if (c.warmup == 0) {
      // Some host's clock runs behind, so its first step re-latches.
      util::Rng clock_rng = rng.fork(0x17);
      const core::ClockModel clocks(cfg.clocks, c.servers, clock_rng);
      bool behind = false;
      for (int s = 0; s < c.servers; ++s) behind |= clocks.offset(s) < 0;
      EXPECT_TRUE(behind) << c.what;
    }
  }
}

}  // namespace
}  // namespace msamp::fleet
