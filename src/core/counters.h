// Counter layout of the Millisampler tc filter (§4.1/§4.2).
//
// The kernel side keeps, for every CPU core, an array of `buckets`
// (2000 by default) rows of 64-bit counters plus a 128-bit flow sketch.
// The user-space side aggregates the per-CPU rows into BucketSample values.
#pragma once

#include <cstdint>

#include "core/flow_sketch.h"

namespace msamp::core {

/// One kernel-side counter row: what the eBPF program increments for one
/// CPU and one time bucket.  sizeof(RawBucket) == 56, so a default run
/// (2000 buckets x 32 CPUs) costs 2000*32*56 = ~3.6MB of kernel memory —
/// matching the footprint reported in §4.3.
struct RawBucket {
  std::uint64_t in_bytes = 0;       ///< ingress bytes
  std::uint64_t in_retx_bytes = 0;  ///< ingress bytes with the retx bit
  std::uint64_t out_bytes = 0;      ///< egress bytes
  std::uint64_t out_retx_bytes = 0; ///< egress bytes with the retx bit
  std::uint64_t in_ecn_bytes = 0;   ///< ingress CE-marked bytes
  std::uint64_t sketch[2] = {0, 0}; ///< 128-bit active-connection sketch

  void clear() noexcept { *this = RawBucket{}; }
};
static_assert(sizeof(RawBucket) == 56, "RawBucket layout drifted");

/// One user-space aggregated sample (summed across CPUs for one bucket).
struct BucketSample {
  std::int64_t in_bytes = 0;
  std::int64_t in_retx_bytes = 0;
  std::int64_t out_bytes = 0;
  std::int64_t out_retx_bytes = 0;
  std::int64_t in_ecn_bytes = 0;
  /// Linear-counting estimate of distinct active connections this bucket.
  double connections = 0.0;

  bool operator==(const BucketSample&) const = default;
};

}  // namespace msamp::core
