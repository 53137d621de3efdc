#include "analysis/burst_detect.h"

#include <cstddef>

namespace msamp::analysis {

std::int64_t burst_threshold_bytes(const BurstDetectConfig& config) {
  return static_cast<std::int64_t>(
      config.threshold_frac * sim::bytes_in(config.interval,
                                            config.line_rate_gbps));
}

bool is_bursty_sample(const core::BucketSample& sample,
                      const BurstDetectConfig& config) {
  return sample.in_bytes > burst_threshold_bytes(config);
}

std::vector<Burst> detect_bursts(std::span<const core::BucketSample> series,
                                 const BurstDetectConfig& config) {
  const std::int64_t threshold = burst_threshold_bytes(config);
  std::vector<Burst> bursts;
  bool open = false;  // the last burst ends at the previous sample
  for (std::size_t i = 0; i < series.size(); ++i) {
    const std::int64_t bytes = series[i].in_bytes;
    if (bytes <= threshold) {
      open = false;
    } else if (open) {
      Burst& b = bursts.back();
      ++b.len;
      // A u64 counter sum: wraps mod 2^64, never a signed overflow.
      b.volume_bytes = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(b.volume_bytes) +
          static_cast<std::uint64_t>(bytes));
    } else {
      bursts.push_back({i, 1, bytes});
      open = true;
    }
  }
  return bursts;
}

}  // namespace msamp::analysis
