// Series alignment for SyncMillisampler (§4.4): concurrent runs latch their
// start on each host's first packet, so their bucket timestamps differ by
// sub-interval amounts.  To combine them into a single run with uniform
// timestamps we linearly interpolate each series onto a common grid.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/run_record.h"
#include "sim/time.h"

namespace msamp::core {

/// Resamples `record`'s buckets at times `grid_start + k*record.interval`
/// for k in [0, n).  Each bucket value is treated as a point sample at its
/// bucket start; grid points between two buckets take the linear blend, and
/// grid points outside the record's span are zero.
std::vector<BucketSample> align_series(const RunRecord& record,
                                       sim::SimTime grid_start, std::size_t n);

/// Same resampling into `out` (resized to `n`), reusing its capacity and
/// writing each sample once.
void align_series(const RunRecord& record, sim::SimTime grid_start,
                  std::size_t n, std::vector<BucketSample>& out);

/// Linear blend of two samples (t in [0,1]), byte counts rounded half away
/// from zero as std::llround does.  Inline, so align_series' loop makes no
/// call per sample.
inline BucketSample lerp_sample(const BucketSample& a, const BucketSample& b,
                                double t) {
  auto mix = [t](std::int64_t x, std::int64_t y) -> std::int64_t {
    // A counter that did not change blends to itself: below 2^52 its
    // double is exact and so is the blend, x + t * 0.  Most retransmission
    // and ECN counters stay put from bucket to bucket.  Larger values keep
    // std::llround's answer below, which past 2^53 is not x (a double
    // cannot hold it).
    constexpr std::int64_t kExact = std::int64_t{1} << 52;
    if (x == y && x < kExact && x > -kExact) return x;
    const double v = static_cast<double>(x) +
                     t * (static_cast<double>(y) - static_cast<double>(x));
    // Below 2^52 both the truncation i and the remainder v - i are exact,
    // so i plus the remainder's carry is std::llround(v) without the libm
    // call.  Larger magnitudes (and NaN) take std::llround itself.
    if (!(std::fabs(v) < 0x1p52)) return std::llround(v);
    const auto i = static_cast<std::int64_t>(v);
    const double r = v - static_cast<double>(i);
    return i + (r >= 0.5) - (r <= -0.5);
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

}  // namespace msamp::core
