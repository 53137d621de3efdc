#include "analysis/burst_detect.h"

#include <cstddef>
#include <type_traits>

#include "util/simd/simd.h"

namespace msamp::analysis {

// The SIMD scan gathers BucketSample::in_bytes as a strided i64 column; pin
// the layout assumptions the gather relies on.
static_assert(std::is_standard_layout_v<core::BucketSample>);
static_assert(offsetof(core::BucketSample, in_bytes) == 0,
              "in_bytes must be the first BucketSample field");
static_assert(sizeof(core::BucketSample) % sizeof(std::int64_t) == 0,
              "BucketSample must be a whole number of 64-bit words");

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
  const std::size_t n = series.size();
  std::vector<Burst> bursts;
  if (n == 0) return bursts;

  // Three vector stages replace the scalar sweep: gather the in_bytes
  // column, compare it against the threshold into a bitmask, then extract
  // maximal runs and sum each run's volume. All integer math, so both SIMD
  // paths produce the same bursts byte for byte.
  constexpr std::size_t kStride =
      sizeof(core::BucketSample) / sizeof(std::int64_t);
  std::vector<std::int64_t> in_bytes(n);
  util::simd::gather_stride_i64(
      reinterpret_cast<const std::int64_t*>(series.data()), kStride, n,
      in_bytes.data());

  std::vector<std::uint64_t> mask((n + 63) / 64);
  util::simd::threshold_mask_i64(in_bytes.data(), n, threshold, mask.data());

  for (const util::simd::Run& run : util::simd::extract_runs(mask.data(), n)) {
    bursts.push_back(
        {run.start, run.len,
         util::simd::sum_i64(in_bytes.data() + run.start, run.len)});
  }
  return bursts;
}

}  // namespace msamp::analysis
