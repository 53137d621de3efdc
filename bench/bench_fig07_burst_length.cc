// Figure 7: burst length distribution for all / contended / non-contended
// bursts (RegA).  Paper: median 2ms, p90 8ms; 88% of non-contended bursts
// are under 3ms; 84.8% of RegA bursts are contended.
#include <cstdint>
#include <iostream>
#include <vector>

#include "common.h"

using namespace msamp;

int main() {
  bench::header("Figure 7 — burst length distribution",
                "median 2ms / p90 8ms; non-contended bursts shorter (88% "
                "< 3ms); volumes: median 1.8MB, p90 9MB");
  const auto& ds = bench::dataset_view();
  const auto& bs = ds.bursts();
  // Lengths are tallied per value: len_ms is a u16 column, so every length
  // has a slot and the CDFs read their ranks from one walk up the counts.
  constexpr std::size_t kLengths = std::size_t{1} << 16;
  std::vector<std::uint64_t> all(kLengths), contended(kLengths),
      free_of_contention(kLengths);
  std::vector<double> vol_all, vol_free;
  long total = 0, n_contended = 0;
  for (std::size_t i = 0; i < bs.size(); ++i) {
    if (bs.region[i] != 0) continue;
    ++total;
    ++all[bs.len_ms[i]];
    vol_all.push_back(bs.volume_bytes[i] / 1e6);
    if (bs.contended[i]) {
      ++n_contended;
      ++contended[bs.len_ms[i]];
    } else {
      ++free_of_contention[bs.len_ms[i]];
      vol_free.push_back(bs.volume_bytes[i] / 1e6);
    }
  }
  bench::print_cdf_figure(
      "fig07_burst_length", "CDF of burst length (ms), RegA",
      "burst length (ms)",
      {bench::cdf_series_counts("all", all),
       bench::cdf_series_counts("contended", contended),
       bench::cdf_series_counts("non-contended", free_of_contention)});

  const auto short_free = static_cast<double>(
      free_of_contention[0] + free_of_contention[1] + free_of_contention[2]);
  const auto n_free = static_cast<double>(total - n_contended);
  util::Table t({"metric", "measured", "paper"});
  t.row()
      .cell("% of RegA bursts contended")
      .cell(100.0 * n_contended / std::max(total, 1L), 1)
      .cell("84.8");
  t.row()
      .cell("% of non-contended bursts < 3ms")
      .cell(100.0 * short_free / std::max(n_free, 1.0), 1)
      .cell("88");
  t.row()
      .cell("median burst volume (MB), all")
      .cell(util::percentile_inplace(vol_all, 50), 2)
      .cell("1.8");
  t.row()
      .cell("p90 burst volume (MB), all")
      .cell(util::percentile_inplace(vol_all, 90), 2)
      .cell("9");
  t.row()
      .cell("median burst volume (MB), non-contended")
      .cell(util::percentile_inplace(vol_free, 50), 2)
      .cell("1.0");
  bench::emit_table("fig07_companions", t);
  return 0;
}
