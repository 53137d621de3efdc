// Figure 17: CDF of switch congestion discards normalized to traffic
// volume, RegA-High vs RegA-Typical racks.  Paper: despite higher
// contention, RegA-High racks see FEWER normalized discards.
#include <iostream>
#include <map>

#include "common.h"
#include "fleet/aggregate.h"

using namespace msamp;

int main() {
  bench::header("Figure 17 — normalized switch congestion discards",
                "RegA-High racks see fewer discards per byte than "
                "RegA-Typical, confirming the Table 2 loss inversion with "
                "switch counters");
  const auto& ds = bench::dataset_view();
  const auto classes = fleet::build_class_map(ds);

  // Aggregate each rack's discards and volume across the whole day, then
  // normalize (discarded bytes per delivered GB).  Ordered map: the
  // iteration below feeds the CDF series, so rack order must be stable
  // (msamp-lint's unordered-iter rule).
  const auto& rrs = ds.rack_runs();
  std::map<std::uint32_t, std::pair<double, double>> per_rack;
  for (std::size_t i = 0; i < rrs.size(); ++i) {
    if (rrs.region[i] != 0) continue;
    auto& [drops, bytes] = per_rack[rrs.rack_id[i]];
    drops += rrs.drop_bytes[i];
    bytes += rrs.in_bytes[i];
  }
  std::vector<double> typical, high;
  for (const auto& [rack, agg] : per_rack) {
    if (agg.second <= 0) continue;
    const double per_gb = agg.first / (agg.second / 1e9);
    const auto it = classes.find(rack);
    const bool is_high = it != classes.end() &&
                         it->second == analysis::RackClass::kRegAHigh;
    (is_high ? high : typical).push_back(per_gb);
  }
  bench::print_cdf_figure(
      "fig17_switch_discards",
      "CDF of congestion-discarded bytes per ingress GB (per rack, full day)",
      "discarded bytes per GB",
      {bench::cdf_series("RegA-Typical", typical),
       bench::cdf_series("RegA-High", high)});

  util::Table t({"class", "median discards/GB", "p90 discards/GB"});
  t.row()
      .cell("RegA-Typical")
      .cell(util::percentile(typical, 50), 0)
      .cell(util::percentile(typical, 90), 0);
  t.row()
      .cell("RegA-High")
      .cell(util::percentile(high, 50), 0)
      .cell(util::percentile(high, 90), 0);
  bench::emit_table("fig17_medians", t);
  return 0;
}
