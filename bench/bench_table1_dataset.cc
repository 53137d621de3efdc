// Table 1: dataset summary — number of sync runs, server runs, bursty
// server runs, and bursts per region (scaled-down fleet; the paper's
// full-scale numbers are quoted for shape comparison in EXPERIMENTS.md).
#include <iostream>

#include "common.h"

using namespace msamp;

int main() {
  bench::header("Table 1 — dataset summary",
                "RegA: 22.4K runs / 1.98M server runs / 0.67M bursty (34%) "
                "/ 19.5M bursts; RegB: 22.4K / 2.1M / 0.58M / 23.9M");
  const auto& ds = bench::dataset_view();

  util::Table table({"Region", "# of runs", "# of server runs",
                     "# bursty server runs", "bursty %", "# of bursts",
                     "# of racks"});
  for (int region = 0; region < 2; ++region) {
    long runs = 0, server_runs = 0, bursty = 0, bursts = 0, racks = 0;
    for (auto r : ds.rack_runs().region) runs += r == region;
    const auto& srs = ds.server_runs();
    for (std::size_t i = 0; i < srs.size(); ++i) {
      if (srs.region[i] != region) continue;
      ++server_runs;
      bursty += srs.bursty[i] != 0;
    }
    for (auto r : ds.bursts().region) bursts += r == region;
    for (auto r : ds.racks().region) racks += r == region;
    table.row()
        .cell(region == 0 ? "RegA" : "RegB")
        .cell(runs)
        .cell(server_runs)
        .cell(bursty)
        .cell(100.0 * static_cast<double>(bursty) /
                  static_cast<double>(std::max(server_runs, 1L)),
              1)
        .cell(bursts)
        .cell(racks);
  }
  bench::emit_table("table1_dataset", table);

  // §5 companion stats: fraction of ingress transferred in bursts and the
  // average trimmed run length.
  const double burst_bytes = util::canonical_sum_over(
      ds.bursts().volume_bytes, [](auto v) { return v; });
  const double total_bytes = util::canonical_sum_over(
      ds.rack_runs().in_bytes, [](auto v) { return v; });
  std::cout << "\ningress bytes carried in bursts: "
            << util::format_double(100.0 * burst_bytes / total_bytes, 1)
            << "% (paper: 49.7% of server-link ingress)\n"
            << "window per run: " << ds.config().samples_per_run
            << " x 1ms samples (paper: ~1850 after trim)\n";
  return 0;
}
