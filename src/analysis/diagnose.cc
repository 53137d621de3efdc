#include "analysis/diagnose.h"

#include <algorithm>

namespace msamp::analysis {

/// Incast threshold on mean in-burst connections.
constexpr double kIncastConns = 30.0;
/// Stall artifact: at least this many consecutive all-zero samples...
constexpr int kStallMinGap = 2;
/// ...followed by a bucket above this multiple of line-rate capacity
/// (only offloaded catch-up batches can exceed line rate).
constexpr double kStallSpikeFactor = 1.2;

std::vector<std::size_t> find_stall_artifacts(
    std::span<const core::BucketSample> series,
    const BurstDetectConfig& burst) {
  std::vector<std::size_t> spikes;
  const double capacity = sim::bytes_in(burst.interval, burst.line_rate_gbps);
  const auto spike_threshold =
      static_cast<std::int64_t>(kStallSpikeFactor * capacity);
  int gap = 0;
  for (std::size_t k = 0; k < series.size(); ++k) {
    if (series[k].in_bytes == 0) {
      ++gap;
      continue;
    }
    // A bucket above line rate can only be a catch-up batch (the NIC
    // cannot deliver faster than the wire); preceded by a silent gap it
    // is the §4.6 kernel-stall signature.
    if (gap >= kStallMinGap && series[k].in_bytes > spike_threshold) {
      spikes.push_back(k);
    }
    gap = 0;
  }
  return spikes;
}

RackDiagnosis diagnose(const core::SyncRun& run,
                       const BurstDetectConfig& burst,
                       const LossAssocConfig& loss) {
  RackDiagnosis out;
  out.contention = contention_series(run, burst);
  out.summary = summarize_contention(out.contention);
  out.worst_sample = static_cast<std::size_t>(
      std::max_element(out.contention.begin(), out.contention.end()) -
      out.contention.begin());

  out.servers.reserve(run.num_servers());
  for (std::size_t s = 0; s < run.num_servers(); ++s) {
    const auto& series = run.series[s];
    ServerDiagnosis diag;
    diag.server = s;
    diag.bursts = detect_bursts(series, burst);
    diag.stats = server_run_stats(series, diag.bursts, burst);
    const auto lossy = lossy_bursts(series, diag.bursts, loss);
    diag.lossy_bursts =
        static_cast<std::size_t>(std::count(lossy.begin(), lossy.end(), true));
    diag.pattern = diag.bursts.empty() ? TrafficPattern::kIdle
                   : diag.stats.conns_inside >= kIncastConns
                       ? TrafficPattern::kHeavyIncast
                       : TrafficPattern::kFanOut;
    diag.stall_artifacts = find_stall_artifacts(series, burst);
    out.measurement_artifacts |= !diag.stall_artifacts.empty();
    out.servers.push_back(std::move(diag));
  }

  // Loss hotspots: top servers by lossy-burst count, ties by index.
  std::vector<std::size_t> order(out.servers.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const std::size_t la = out.servers[a].lossy_bursts;
    const std::size_t lb = out.servers[b].lossy_bursts;
    return la != lb ? la > lb : a < b;
  });
  for (std::size_t i = 0; i < order.size() && i < 5; ++i) {
    if (out.servers[order[i]].lossy_bursts == 0) break;
    out.loss_hotspots.push_back(order[i]);
  }
  return out;
}

}  // namespace msamp::analysis
