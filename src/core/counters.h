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

  /// Folds another CPU's row for the same bucket into this one, as the
  /// user-space read does: the counters saturating-add (clamped at
  /// UINT64_MAX), the sketch words OR.
  void fold(const RawBucket& other) noexcept {
    in_bytes = sat_add(in_bytes, other.in_bytes);
    in_retx_bytes = sat_add(in_retx_bytes, other.in_retx_bytes);
    out_bytes = sat_add(out_bytes, other.out_bytes);
    out_retx_bytes = sat_add(out_retx_bytes, other.out_retx_bytes);
    in_ecn_bytes = sat_add(in_ecn_bytes, other.in_ecn_bytes);
    sketch[0] |= other.sketch[0];
    sketch[1] |= other.sketch[1];
  }

 private:
  static std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) noexcept {
    const std::uint64_t s = a + b;
    return s < a ? ~std::uint64_t{0} : s;
  }
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
