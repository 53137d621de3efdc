// Cross-check: one rack window simulated twice from the same task mix —
// once by the fleet-scale fluid model, once with real TCP connections over
// the packet simulator — and analyzed by the identical measurement +
// analysis pipeline.  The fleet results stand on the fluid model; this
// bench shows its headline statistics (burstiness, burst geometry,
// contention) are consistent with honest transport dynamics.
#include <iostream>

#include "analysis/diagnose.h"
#include "common.h"
#include "core/sync_controller.h"
#include "fleet/fluid_rack.h"
#include "workload/diurnal.h"
#include "workload/packet_rack_driver.h"

using namespace msamp;

namespace {

constexpr int kServers = 16;
constexpr int kSamples = 400;

std::vector<workload::TaskKind> task_mix() {
  std::vector<workload::TaskKind> tasks;
  for (int s = 0; s < kServers; ++s) {
    tasks.push_back(s % 4 == 0   ? workload::TaskKind::kMlTraining
                    : s % 4 == 1 ? workload::TaskKind::kCache
                    : s % 4 == 2 ? workload::TaskKind::kWeb
                                 : workload::TaskKind::kStorage);
  }
  return tasks;
}

struct Stats {
  double bursty_servers;
  double bursts_per_sec_median;
  double burst_len_median;
  double in_burst_util_median;
  double avg_contention;
  int p90_contention;
};

Stats analyze(const core::SyncRun& sync) {
  // The defaults: 12.5 Gb/s at 1 ms, the fleet's line rate and interval.
  const auto report = analysis::diagnose(sync);
  std::vector<double> bps, lens, utils;
  long bursty_count = 0;  // integer tally: exact under any fold order
  for (const auto& server : report.servers) {
    if (!server.stats.bursty) continue;
    ++bursty_count;
    bps.push_back(server.stats.bursts_per_sec);
    utils.push_back(server.stats.util_inside);
    for (const auto& b : server.bursts) {
      lens.push_back(static_cast<double>(b.len));
    }
  }
  return {.bursty_servers = static_cast<double>(bursty_count),
          .bursts_per_sec_median = util::percentile(bps, 50),
          .burst_len_median = util::percentile(lens, 50),
          .in_burst_util_median = util::percentile(utils, 50),
          .avg_contention = report.summary.avg,
          .p90_contention = report.summary.p90};
}

Stats run_fluid() {
  workload::RackMeta rack;
  rack.rack_id = 1;
  rack.region = workload::RegionId::kRegA;
  rack.intensity = 1.8;
  rack.server_kind = task_mix();
  rack.server_service.assign(kServers, 0);
  fleet::FleetConfig cfg;
  cfg.samples_per_run = kSamples;
  fleet::FluidRack fluid(rack, cfg, /*hour=*/6, util::Rng(7));
  return analyze(fluid.run().sync);
}

Stats run_packet() {
  sim::Simulator simulator;
  net::RackConfig rack_cfg;
  rack_cfg.num_servers = kServers;
  rack_cfg.num_remote_hosts = 48;
  net::Rack rack(simulator, rack_cfg);

  core::SamplerConfig sampler_cfg;
  sampler_cfg.filter.num_buckets = kSamples;
  sampler_cfg.filter.num_cpus = 2;
  sampler_cfg.grace = 50 * sim::kMillisecond;
  std::vector<std::unique_ptr<core::Sampler>> samplers;
  std::vector<core::RunRecord> records(kServers);
  for (int s = 0; s < kServers; ++s) {
    samplers.push_back(
        std::make_unique<core::Sampler>(simulator, rack.server(s), 0,
                                        sampler_cfg));
  }

  workload::PacketRackDriverConfig driver_cfg;
  driver_cfg.server_tasks = task_mix();
  driver_cfg.intensity = 1.8;
  driver_cfg.diurnal = workload::diurnal_multiplier(
      workload::RegionId::kRegA, 6);
  workload::PacketRackDriver driver(simulator, rack, driver_cfg,
                                    util::Rng(7));

  for (int s = 0; s < kServers; ++s) {
    const int idx = s;
    samplers[static_cast<std::size_t>(s)]->start_run(
        sim::kMillisecond,
        [&records, idx](const core::RunRecord& r) { records[idx] = r; });
  }
  driver.start((kSamples + 100) * sim::kMillisecond);
  simulator.run();
  return analyze(core::combine_runs(records));
}

}  // namespace

int main() {
  bench::header(
      "Cross-check — fluid model vs packet-level TCP, same rack workload",
      "the fleet-scale results rest on the fluid model; its burstiness and "
      "contention statistics must be consistent with real transport");
  // The two vantage simulations share nothing but the task mix and seed —
  // two independent windows, run concurrently, reduced in fixed order.
  const std::vector<Stats> both = bench::parallel_windows(
      2, [](std::size_t w) { return w == 0 ? run_fluid() : run_packet(); });
  const Stats& fluid = both[0];
  const Stats& packet = both[1];
  util::Table table({"metric", "fluid model", "packet-level TCP"});
  table.row()
      .cell("bursty servers (of 16)")
      .cell(fluid.bursty_servers, 0)
      .cell(packet.bursty_servers, 0);
  table.row()
      .cell("median bursts/s (bursty servers)")
      .cell(fluid.bursts_per_sec_median, 1)
      .cell(packet.bursts_per_sec_median, 1);
  table.row()
      .cell("median burst length (ms)")
      .cell(fluid.burst_len_median, 1)
      .cell(packet.burst_len_median, 1);
  table.row()
      .cell("median in-burst utilization")
      .cell(fluid.in_burst_util_median, 2)
      .cell(packet.in_burst_util_median, 2);
  table.row()
      .cell("avg contention")
      .cell(fluid.avg_contention, 2)
      .cell(packet.avg_contention, 2);
  table.row()
      .cell("p90 contention")
      .cell(static_cast<long long>(fluid.p90_contention))
      .cell(static_cast<long long>(packet.p90_contention));
  bench::emit_table("crosscheck_fluid_vs_packet", table);
  std::cout << "\n(Seeds are matched but the generators draw differently; "
               "the comparison is statistical, not sample-by-sample.)\n";
  return 0;
}
