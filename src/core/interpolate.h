// Series alignment for SyncMillisampler (§4.4): concurrent runs latch their
// start on each host's first packet, so their bucket timestamps differ by
// sub-interval amounts.  To combine them into a single run with uniform
// timestamps we linearly interpolate each series onto a common grid.
#pragma once

#include <cstddef>
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

/// Same resampling into `out` (resized to `n`), reusing its capacity.
void align_series(const RunRecord& record, sim::SimTime grid_start,
                  std::size_t n, std::vector<BucketSample>& out);

/// Linear blend of two samples (t in [0,1]); exposed for tests.
BucketSample lerp_sample(const BucketSample& a, const BucketSample& b,
                         double t);

}  // namespace msamp::core
