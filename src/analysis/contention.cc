#include "analysis/contention.h"

#include <algorithm>

namespace msamp::analysis {

void add_contention(std::span<const core::BucketSample> series,
                    const BurstDetectConfig& config, std::span<int> counts) {
  const std::int64_t threshold = burst_threshold_bytes(config);
  for (std::size_t k = 0; k < series.size(); ++k) {
    if (series[k].in_bytes > threshold) ++counts[k];
  }
}

std::vector<int> contention_series(const core::SyncRun& run,
                                   const BurstDetectConfig& config) {
  std::vector<int> contention(run.num_samples(), 0);
  for (const auto& series : run.series) {
    add_contention(series, config, contention);
  }
  return contention;
}

ContentionSummary summarize_contention(std::span<const int> contention) {
  ContentionSummary s;
  s.samples = contention.size();
  if (contention.empty()) return s;
  long long total = 0;
  int min_active = 0;
  bool any_active = false;
  for (int c : contention) {
    total += c;
    s.max = std::max(s.max, c);
    if (c >= 1) {
      ++s.active_samples;
      min_active = any_active ? std::min(min_active, c) : c;
      any_active = true;
    }
  }
  s.avg = static_cast<double>(total) / static_cast<double>(contention.size());
  s.min_active = any_active ? min_active : 0;

  std::vector<int> sorted(contention.begin(), contention.end());
  std::sort(sorted.begin(), sorted.end());
  s.p90 = sorted[static_cast<std::size_t>(0.9 * (sorted.size() - 1))];
  return s;
}

double queue_share_at_contention(double alpha, int contention) {
  const int s = std::max(contention, 1);
  return alpha / (1.0 + alpha * static_cast<double>(s));
}

}  // namespace msamp::analysis
