// Rack forensics: the troubleshooting workflow Millisampler was built for
// (§1, §4.2).  Run a SyncMillisampler collection over a simulated rack,
// then walk the combined run like an on-call engineer: find the worst
// millisecond, identify which servers were bursty, how much buffer each
// queue could have held, and whether losses followed.
//
//   $ ./build/examples/rack_forensics
#include <algorithm>
#include <iostream>

#include "analysis/diagnose.h"
#include "fleet/fluid_rack.h"
#include "util/ascii_plot.h"
#include "util/table.h"
#include "workload/placement.h"

using namespace msamp;

int main() {
  // A mixed rack: two-thirds cache/web (incast-y), one-third ML.
  workload::RackMeta rack;
  rack.rack_id = 7;
  rack.region = workload::RegionId::kRegA;
  rack.intensity = 1.8;
  for (int s = 0; s < 92; ++s) {
    rack.server_service.push_back(s % 3);
    rack.server_kind.push_back(s % 3 == 0 ? workload::TaskKind::kMlTraining
                               : s % 3 == 1 ? workload::TaskKind::kCache
                                            : workload::TaskKind::kWeb);
  }

  fleet::FleetConfig cfg;
  cfg.samples_per_run = 1000;
  fleet::FluidRack fluid(rack, cfg, /*hour=*/6, util::Rng(2024));
  const auto result = fluid.run();
  const auto& sync = result.sync;

  const analysis::BurstDetectConfig burst_cfg = cfg.burst_config();
  const auto report = analysis::diagnose(sync, burst_cfg, cfg.loss);
  const auto& contention = report.contention;
  const auto& summary = report.summary;

  std::cout << "SyncMillisampler run over " << sync.num_servers()
            << " servers, " << sync.num_samples() << " x 1ms samples\n"
            << "avg contention " << util::format_double(summary.avg, 2)
            << ", p90 " << summary.p90 << ", max " << summary.max
            << "; switch dropped "
            << util::format_bytes(static_cast<double>(result.drop_bytes))
            << "\n\n";

  // The worst millisecond in the window.
  const std::size_t worst = report.worst_sample;
  std::cout << "worst millisecond: sample " << worst << " with "
            << summary.max << " simultaneously bursty servers; DT "
            << "share per queue at that instant: "
            << util::format_double(
                   100.0 * analysis::queue_share_at_contention(
                               cfg.buffer.alpha, summary.max),
                   1)
            << "% of the shared buffer (vs 50% for a lone burst)\n\n";

  // Who was bursting, and did they lose?
  util::Table table({"server", "task", "util@worst %", "~conns", "bursts",
                     "lossy bursts"});
  int shown = 0;
  for (std::size_t s = 0; s < sync.num_servers() && shown < 12; ++s) {
    if (!analysis::is_bursty_sample(sync.series[s][worst], burst_cfg)) continue;
    const auto& server = report.servers[s];
    table.row()
        .cell(static_cast<long long>(s))
        .cell(std::string(workload::task_name(rack.server_kind[s])))
        .cell(100.0 * static_cast<double>(sync.series[s][worst].in_bytes) /
                  sim::bytes_in(sim::kMillisecond, cfg.line_rate_gbps),
              1)
        .cell(sync.series[s][worst].connections, 0)
        .cell(static_cast<long long>(server.bursts.size()))
        .cell(static_cast<long long>(server.lossy_bursts));
    ++shown;
  }
  table.print(std::cout);

  // Contention timeline for the surrounding 100ms.
  util::Series c{"contention", {}, {}};
  const std::size_t lo = worst > 50 ? worst - 50 : 0;
  for (std::size_t k = lo; k < std::min(lo + 100, contention.size()); ++k) {
    c.x.push_back(static_cast<double>(k));
    c.y.push_back(contention[k]);
  }
  util::PlotOptions opt;
  opt.title = "\ncontention around the worst millisecond";
  opt.x_label = "sample (ms)";
  opt.y_label = "contention";
  opt.y_min = 0;
  util::ascii_plot(std::cout, {c}, opt);
  return 0;
}
