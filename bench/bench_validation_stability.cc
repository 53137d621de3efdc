// §5 validation: the paper collected three additional weekdays and found
// the results similar.  We regenerate three scaled-down measurement days
// with different seeds and compare the headline statistics side by side —
// the qualitative findings must be stable across days.
#include <cstdlib>
#include <iostream>

#include "common.h"
#include "fleet/aggregate.h"
#include "workload/diurnal.h"

using namespace msamp;

namespace {

struct DayStats {
  double bursty_pct_rega;
  double contended_pct[3];
  double lossy_pct[3];
  double rega_p75_contention;
};

DayStats run_day(std::uint64_t seed) {
  fleet::FleetConfig cfg;
  cfg.seed = seed;
  cfg.racks_per_region = 32;
  cfg.servers_per_rack = 92;
  cfg.hours = 12;
  cfg.samples_per_run = 500;
  // Each day is analyzed through a DatasetView attached to the in-memory
  // v6 blob — same read path as the mapped benches, no file needed.
  const std::vector<std::uint8_t> blob = fleet::run_fleet(cfg).serialize();
  fleet::DatasetView view;
  if (auto st = fleet::DatasetView::attach(blob.data(), blob.size(), &view);
      !st) {
    std::cerr << "attach failed: " << st.to_string() << "\n";
    std::abort();
  }
  const auto classes = fleet::build_class_map(view);

  DayStats out{};
  long bursty = 0, servers = 0;
  const auto& srs = view.server_runs();
  for (std::size_t i = 0; i < srs.size(); ++i) {
    if (srs.region[i] != 0) continue;
    ++servers;
    bursty += srs.bursty[i] != 0;
  }
  out.bursty_pct_rega = 100.0 * static_cast<double>(bursty) /
                        static_cast<double>(std::max(servers, 1L));

  long bursts[3] = {}, contended[3] = {}, lossy[3] = {};
  const auto& bs = view.bursts();
  for (std::size_t i = 0; i < bs.size(); ++i) {
    const int c = static_cast<int>(
        fleet::burst_class(bs.region[i], bs.rack_id[i], classes));
    ++bursts[c];
    contended[c] += bs.contended[i] != 0;
    lossy[c] += bs.lossy[i] != 0;
  }
  for (int c = 0; c < 3; ++c) {
    out.contended_pct[c] = 100.0 * static_cast<double>(contended[c]) /
                           static_cast<double>(std::max(bursts[c], 1L));
    out.lossy_pct[c] = 100.0 * static_cast<double>(lossy[c]) /
                       static_cast<double>(std::max(bursts[c], 1L));
  }

  std::vector<double> busy;
  const auto& rrs = view.rack_runs();
  for (std::size_t i = 0; i < rrs.size(); ++i) {
    if (rrs.region[i] == 0 && rrs.hour[i] == workload::kBusyHour) {
      busy.push_back(rrs.avg_contention[i]);
    }
  }
  out.rega_p75_contention = util::percentile(busy, 75);
  return out;
}

}  // namespace

int main() {
  bench::header("Validation — day-to-day stability",
                "§5: three additional weekdays gave similar results");
  util::Table table({"metric", "day 1", "day 2", "day 3"});
  // The three measurement days are independent windows — each forks its
  // own master seed — so they run concurrently on the bench pool and
  // reduce in day order.  (Each day's run_fleet additionally parallelizes
  // its rack windows internally; both levels honor MSAMP_THREADS and both
  // are deterministic, so the table is byte-identical for any count.)
  const std::vector<DayStats> days = bench::parallel_windows(
      3, [](std::size_t d) {
        return run_day(1000 + static_cast<std::uint64_t>(d) * 7919);
      });
  auto row = [&](const std::string& name, auto get) {
    table.row().cell(name);
    for (int d = 0; d < 3; ++d) table.cell(get(days[static_cast<std::size_t>(d)]), 2);
  };
  row("RegA bursty server runs (%)",
      [](const DayStats& s) { return s.bursty_pct_rega; });
  row("RegA-Typical contended (%)",
      [](const DayStats& s) { return s.contended_pct[0]; });
  row("RegA-High contended (%)",
      [](const DayStats& s) { return s.contended_pct[1]; });
  row("RegA-Typical lossy (%)",
      [](const DayStats& s) { return s.lossy_pct[0]; });
  row("RegA-High lossy (%)",
      [](const DayStats& s) { return s.lossy_pct[1]; });
  row("RegB lossy (%)", [](const DayStats& s) { return s.lossy_pct[2]; });
  row("RegA busy-hour p75 contention",
      [](const DayStats& s) { return s.rega_p75_contention; });
  bench::emit_table("validation_stability", table);

  // The central ordering claim must hold every day.
  bool stable = true;
  for (const auto& d : days) {
    stable = stable && d.lossy_pct[0] > d.lossy_pct[1] &&
             d.contended_pct[1] > 99.0;
  }
  std::cout << "\nTypical-lossier-than-High holds on all days: "
            << (stable ? "yes" : "NO") << "\n";
  return stable ? 0 : 1;
}
