// Trace analyzer: run the paper's §5-§8 analyses on a SyncMillisampler
// trace file — collected externally or exported from the simulator.
//
//   $ ./build/examples/analyze_trace [trace.csv]
//
// Without an argument it demonstrates the full loop: simulate a rack
// window, export it to CSV (the documented msamp-sync-trace schema), read
// it back, and analyze — so the binary doubles as a smoke test and as a
// template for analyzing real data.
#include <filesystem>
#include <iostream>

#include "analysis/diagnose.h"
#include "analysis/trace_io.h"
#include "fleet/fluid_rack.h"
#include "util/table.h"

using namespace msamp;

namespace {

std::string make_demo_trace() {
  workload::RackMeta rack;
  rack.rack_id = 1;
  rack.region = workload::RegionId::kRegA;
  rack.intensity = 2.0;
  for (int s = 0; s < 48; ++s) {
    rack.server_service.push_back(s % 5);
    rack.server_kind.push_back(static_cast<workload::TaskKind>(s % 5));
  }
  fleet::FleetConfig cfg;
  cfg.samples_per_run = 1000;
  fleet::FluidRack fluid(rack, cfg, /*hour=*/6, util::Rng(99));
  const std::string path = "bench_out/demo_trace.csv";
  analysis::write_sync_trace_file(fluid.run().sync, path);
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  if (argc > 1) {
    path = argv[1];
  } else {
    path = make_demo_trace();
    std::cout << "no trace given; simulated one rack window and exported "
              << path << "\n\n";
  }

  const auto run = analysis::read_sync_trace_file(path);
  if (!run.has_value()) {
    std::cerr << "error: could not parse " << path
              << " as an msamp-sync-trace CSV\n";
    return 1;
  }

  std::cout << "trace: " << run->num_servers() << " servers x "
            << run->num_samples() << " samples at "
            << sim::to_ms(run->interval) << "ms\n\n";

  const auto report = analysis::diagnose(*run, {.interval = run->interval});
  const auto& summary = report.summary;
  std::cout << "contention: avg "
            << util::format_double(summary.avg, 2) << ", p90 " << summary.p90
            << ", max " << summary.max << " (active in "
            << summary.active_samples << "/" << summary.samples
            << " samples)\n\n";

  util::Table table({"server", "bursty", "bursts/s", "avg util %",
                     "in-burst util %", "~conns in", "lossy bursts"});
  std::size_t bursty_servers = 0, total_bursts = 0, lossy_total = 0;
  for (const auto& server : report.servers) {
    const auto& stats = server.stats;
    bursty_servers += stats.bursty;
    total_bursts += server.bursts.size();
    lossy_total += server.lossy_bursts;
    if (server.server < 10) {  // detail for the first few; summary below
      table.row()
          .cell(static_cast<long long>(server.server))
          .cell(stats.bursty ? "yes" : "no")
          .cell(stats.bursts_per_sec, 1)
          .cell(100 * stats.avg_util, 1)
          .cell(100 * stats.util_inside, 1)
          .cell(stats.conns_inside, 1)
          .cell(static_cast<long long>(server.lossy_bursts));
    }
  }
  table.print(std::cout);
  std::cout << "\nacross all " << run->num_servers() << " servers: "
            << bursty_servers << " bursty, " << total_bursts << " bursts, "
            << lossy_total << " with attributed loss\n";
  return 0;
}
