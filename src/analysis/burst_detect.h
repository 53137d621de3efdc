// Burst detection (§5): a burst is any maximal run of consecutive samples
// whose ingress utilization exceeds 50% of line rate (following Zhang et
// al.; traffic below that threshold does not typically cause buffering).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/counters.h"
#include "sim/time.h"

namespace msamp::analysis {

/// One detected burst within a server's sample series.
struct Burst {
  std::size_t start = 0;          ///< first sample index
  std::size_t len = 1;            ///< length in samples
  std::int64_t volume_bytes = 0;  ///< ingress bytes within the burst
};

/// Detection parameters.
struct BurstDetectConfig {
  double line_rate_gbps = 12.5;
  sim::SimDuration interval = sim::kMillisecond;
  double threshold_frac = 0.5;  ///< fraction of line rate defining "bursty"
};

/// Byte threshold for one sample under `config`: the line rate's bytes per
/// interval times `threshold_frac`, saturating at INT64_MAX, which no
/// sample exceeds.
std::int64_t burst_threshold_bytes(const BurstDetectConfig& config);

/// True if the sample's ingress bytes exceed the burstiness threshold.
bool is_bursty_sample(const core::BucketSample& sample,
                      const BurstDetectConfig& config);

/// Finds all bursts in a server's series.
std::vector<Burst> detect_bursts(std::span<const core::BucketSample> series,
                                 const BurstDetectConfig& config);

}  // namespace msamp::analysis
