#include "core/interpolate.h"

namespace msamp::core {

std::vector<BucketSample> align_series(const RunRecord& record,
                                       sim::SimTime grid_start,
                                       std::size_t n) {
  std::vector<BucketSample> out;
  align_series(record, grid_start, n, out);
  return out;
}

void align_series(const RunRecord& record, sim::SimTime grid_start,
                  std::size_t n, std::vector<BucketSample>& out) {
  if (!record.valid()) {
    out.assign(n, BucketSample{});
    return;
  }
  // Every sample below is assigned, so resize() zero-fills nothing that
  // the reused storage already holds.
  out.resize(n);
  const double dt = static_cast<double>(record.interval);
  const std::size_t size = record.buckets.size();
  for (std::size_t k = 0; k < n; ++k) {
    const sim::SimTime t =
        grid_start + static_cast<sim::SimDuration>(k) * record.interval;
    const double x = static_cast<double>(t - record.start) / dt;
    // Grid points before the record's start or past its end read zero.
    const auto i = x < 0.0 ? size : static_cast<std::size_t>(x);
    if (i >= size) {
      out[k] = BucketSample{};
      continue;
    }
    const double frac = x - static_cast<double>(i);
    if (frac == 0.0 || i + 1 >= size) {
      out[k] = record.buckets[i];
    } else {
      out[k] = lerp_sample(record.buckets[i], record.buckets[i + 1], frac);
    }
  }
}

}  // namespace msamp::core
