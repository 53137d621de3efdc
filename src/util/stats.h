// Streaming and batch statistics used by the analysis pipeline and by every
// figure bench: Welford moments, exact percentiles on collected samples,
// empirical CDFs, box-plot summaries and fixed-width histograms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace msamp::util {

/// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
class StreamingStats {
 public:
  /// Adds one observation.
  void add(double x) noexcept;

  /// Merges another accumulator (parallel-friendly).
  void merge(const StreamingStats& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }
  /// Population variance; 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return n_ == 0 ? 0.0 : max_; }
  double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Percentiles and CDFs select the order statistics they read
// (std::nth_element) instead of sorting the whole input, so a call costs
// O(n log k) for k ranks.  Each rank gets the value std::sort would put
// there, for any input without NaN (NaN was never inside std::sort's
// contract either).  -0.0 and +0.0 compare equal, so which of the two sits
// at a rank was never specified, by sorting or by selection.

/// Exact percentile of a sample set with linear interpolation between order
/// statistics. `p` is in [0, 100]. Returns 0 for an empty sample.
/// The input is copied; use `percentile_inplace` to avoid the copy.
double percentile(std::vector<double> samples, double p);

/// As `percentile`, but reorders the caller's buffer in place (into no
/// particular order; a second call on it is still exact).
double percentile_inplace(std::vector<double>& samples, double p);

/// Five-number summary plus mean, as used for the diurnal box plots
/// (Figures 13 and 14 in the paper).
struct BoxSummary {
  std::size_t count = 0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p90 = 0.0;
  double max = 0.0;
  double mean = 0.0;
};

/// Computes a BoxSummary; sorts the buffer in place (the mean sums the
/// sorted buffer, so its bytes depend on that order).
BoxSummary box_summary(std::vector<double>& samples);

/// One point of an empirical CDF: `percent` of samples are <= `value`.
struct CdfPoint {
  double value = 0.0;
  double percent = 0.0;
};

/// Empirical CDF of the samples, downsampled to at most `max_points`
/// evenly-spaced quantiles (the figure benches print these series).
std::vector<CdfPoint> empirical_cdf(std::vector<double> samples,
                                    std::size_t max_points = 100);

/// `empirical_cdf` of samples given as counts per value: `counts[v]`
/// samples have the value v.  Returns exactly the points `empirical_cdf`
/// returns on the expanded samples, in one walk up the counts.
std::vector<CdfPoint> empirical_cdf_counts(
    const std::vector<std::uint64_t>& counts, std::size_t max_points = 100);

/// Fixed-width histogram over [lo, hi); out-of-range samples clamp into the
/// first/last bin. Used to bucket bursts by length/connection count for
/// Figures 16, 18 and 19.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;

  std::size_t bins() const noexcept { return counts_.size(); }
  std::uint64_t count(std::size_t bin) const { return counts_.at(bin); }
  std::uint64_t total() const noexcept { return total_; }
  /// Center value of the bin, for plotting.
  double bin_center(std::size_t bin) const;
  /// Lower edge of the bin.
  double bin_lo(std::size_t bin) const;
  double bin_width() const noexcept { return width_; }
  /// Bin index a value falls into (after clamping).
  std::size_t bin_index(double x) const noexcept;

 private:
  double lo_;
  double width_;
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> counts_;
};

/// Ratio helper that is 0 when the denominator is 0 (loss-percentage math).
double safe_ratio(double num, double den) noexcept;

// --- canonical-order reductions ----------------------------------------
//
// Floating-point addition is not associative, so the order a reduction
// runs in reaches the emitted bytes the moment a compiler vectorizes,
// contracts into FMA, or a thread pool interleaves partial sums.  Every
// float/double reduction on an output path therefore goes through one of
// these helpers, each of which pins a single named addition DAG.
// `canonical_sum_over` (the form every fleet-dataset byte goes through)
// stays a strict left fold.  The contiguous `canonical_sum` is pinned to a
// fixed-width lane-then-tree fold:
//
//   lane j (j in 0..3):  acc[j] += v[4*i + j]     serial chain per lane
//   tree combine:        r = (acc[0] + acc[2]) + (acc[1] + acc[3])
//   tail (n % 4 values): r += v[k]                serial, left to right
//
// msamp_lint's `float-accum-order` rule flags ad-hoc `+=` loops
// (docs/PERFORMANCE.md).

/// Sum of n doubles in the pinned lane-then-tree order.
double canonical_sum(const double* data, std::size_t n) noexcept;

/// Sum of a vector in the pinned lane-then-tree order.
double canonical_sum(const std::vector<double>& data) noexcept;

/// canonical_sum(data) / data.size(); 0 for an empty vector.
double canonical_mean(const std::vector<double>& data) noexcept;

/// Left-to-right sum of `proj(element)` over any forward range, in range
/// order: `canonical_sum_over(bursts, [](const Burst& b) { return
/// b.bytes; })`.  The one-liner that replaces an ad-hoc `+=` loop.
template <typename Range, typename Proj>
double canonical_sum_over(const Range& range, Proj&& proj) {
  double acc = 0.0;
  for (const auto& x : range) {
    acc = acc + static_cast<double>(proj(x));
  }
  return acc;
}

}  // namespace msamp::util
