#include "packet_window.h"

#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/burst_stats.h"
#include "analysis/contention.h"
#include "core/sampler.h"
#include "core/sync_controller.h"
#include "workload/diurnal.h"
#include "workload/packet_rack_driver.h"

namespace msamp::perfbench {

std::string PacketWindowResult::line() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "events %llu grid_start %lld samples %zu bursty_servers %ld "
                "bursts %ld avg_contention %.6f p90_contention %d "
                "delivered %lld retx %lld",
                static_cast<unsigned long long>(events),
                static_cast<long long>(grid_start), num_samples,
                bursty_servers, bursts, avg_contention, p90_contention,
                static_cast<long long>(delivered_bytes),
                static_cast<long long>(retx_bytes));
  return buf;
}

PacketWindowResult run_packet_window(const PacketWindowConfig& config,
                                     Tracer* tracer) {
  const int n = config.servers;
  // Same task mix as bench_crosscheck_fluid_vs_packet: every task profile
  // of the fleet, so the window exercises both bursty and smooth senders.
  std::vector<workload::TaskKind> tasks;
  for (int s = 0; s < n; ++s) {
    tasks.push_back(s % 4 == 0   ? workload::TaskKind::kMlTraining
                    : s % 4 == 1 ? workload::TaskKind::kCache
                    : s % 4 == 2 ? workload::TaskKind::kWeb
                                 : workload::TaskKind::kStorage);
  }

  std::optional<Span> setup(std::in_place, tracer, "workload.packet_setup");
  sim::Simulator simulator;
  net::RackConfig rack_cfg;
  rack_cfg.num_servers = n;
  rack_cfg.num_remote_hosts = 3 * n;
  net::Rack rack(simulator, rack_cfg);

  core::SamplerConfig sampler_cfg;
  sampler_cfg.filter.num_buckets = config.samples;
  sampler_cfg.filter.num_cpus = 2;
  sampler_cfg.grace = 50 * sim::kMillisecond;
  std::vector<std::unique_ptr<core::Sampler>> samplers;
  std::vector<core::RunRecord> records(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    samplers.push_back(std::make_unique<core::Sampler>(
        simulator, rack.server(s), 0, sampler_cfg));
  }

  workload::PacketRackDriverConfig driver_cfg;
  driver_cfg.server_tasks = tasks;
  driver_cfg.intensity = 1.8;
  driver_cfg.diurnal = workload::diurnal_multiplier(workload::RegionId::kRegA,
                                                    workload::kBusyHour);
  workload::PacketRackDriver driver(simulator, rack, driver_cfg,
                                    util::Rng(config.seed));
  for (int s = 0; s < n; ++s) {
    samplers[static_cast<std::size_t>(s)]->start_run(
        sim::kMillisecond, [&records, s](const core::RunRecord& r) {
          records[static_cast<std::size_t>(s)] = r;
        });
  }
  driver.start((config.samples + 100) * sim::kMillisecond);
  setup.reset();

  PacketWindowResult out;
  {
    Span span(tracer, "sim.run");
    simulator.run();
    out.events = simulator.dispatched();
    if (tracer != nullptr) {
      tracer->add_counter(span.id(), "events",
                          static_cast<std::int64_t>(out.events));
    }
  }
  core::SyncRun sync;
  {
    Span span(tracer, "core.combine_runs");
    sync = core::combine_runs(records);
  }
  Span span(tracer, "analysis.window");
  const analysis::BurstDetectConfig burst_cfg{.line_rate_gbps = 12.5,
                                              .interval = sim::kMillisecond};
  for (const auto& series : sync.series) {
    const auto bursts = analysis::detect_bursts(series, burst_cfg);
    const auto stats = analysis::server_run_stats(series, bursts, burst_cfg);
    out.bursty_servers += stats.bursty ? 1 : 0;
    out.bursts += static_cast<long>(bursts.size());
  }
  const auto summary =
      analysis::summarize_contention(analysis::contention_series(sync, burst_cfg));
  out.grid_start = sync.grid_start;
  out.num_samples = sync.num_samples();
  out.avg_contention = summary.avg;
  out.p90_contention = summary.p90;
  out.delivered_bytes = driver.total_delivered();
  out.retx_bytes = driver.total_retx_bytes();
  return out;
}

}  // namespace msamp::perfbench
