#include "core/interpolate.h"

#include <cmath>

namespace msamp::core {

BucketSample lerp_sample(const BucketSample& a, const BucketSample& b,
                         double t) {
  auto mix = [t](std::int64_t x, std::int64_t y) {
    return static_cast<std::int64_t>(
        std::llround(static_cast<double>(x) +
                     t * (static_cast<double>(y) - static_cast<double>(x))));
  };
  BucketSample out;
  out.in_bytes = mix(a.in_bytes, b.in_bytes);
  out.in_retx_bytes = mix(a.in_retx_bytes, b.in_retx_bytes);
  out.out_bytes = mix(a.out_bytes, b.out_bytes);
  out.out_retx_bytes = mix(a.out_retx_bytes, b.out_retx_bytes);
  out.in_ecn_bytes = mix(a.in_ecn_bytes, b.in_ecn_bytes);
  out.connections = a.connections + t * (b.connections - a.connections);
  return out;
}

std::vector<BucketSample> align_series(const RunRecord& record,
                                       sim::SimTime grid_start,
                                       std::size_t n) {
  std::vector<BucketSample> out;
  align_series(record, grid_start, n, out);
  return out;
}

void align_series(const RunRecord& record, sim::SimTime grid_start,
                  std::size_t n, std::vector<BucketSample>& out) {
  out.assign(n, BucketSample{});
  if (!record.valid()) return;
  const double dt = static_cast<double>(record.interval);
  for (std::size_t k = 0; k < n; ++k) {
    const sim::SimTime t =
        grid_start + static_cast<sim::SimDuration>(k) * record.interval;
    const double x = static_cast<double>(t - record.start) / dt;
    if (x < 0.0) continue;
    const auto i = static_cast<std::size_t>(x);
    if (i >= record.buckets.size()) continue;
    const double frac = x - static_cast<double>(i);
    if (frac == 0.0 || i + 1 >= record.buckets.size()) {
      out[k] = record.buckets[i];
    } else {
      out[k] = lerp_sample(record.buckets[i], record.buckets[i + 1], frac);
    }
  }
}

}  // namespace msamp::core
