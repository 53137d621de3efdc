#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace msamp::util {
namespace {

// Puts at each absolute position in [rank_first, rank_last) the value
// std::sort would put there, for input without NaN.  [first, last) is a
// part of the buffer that starts at absolute position `base` and holds
// every listed rank; the ranks are strictly increasing.  nth_element on
// the middle rank partitions the part around it, so the ranks on either
// side are order statistics of that side alone: k ranks cost O(n log k).
void select_ranks(double* first, double* last, std::size_t base,
                  const std::size_t* rank_first, const std::size_t* rank_last) {
  while (rank_first != rank_last) {
    const std::size_t* mid = rank_first + (rank_last - rank_first) / 2;
    double* nth = first + (*mid - base);
    std::nth_element(first, nth, last);
    select_ranks(nth + 1, last, *mid + 1, mid + 1, rank_last);
    last = nth;
    rank_last = mid;
  }
}

// The empirical CDF of n samples, at most `max_points` long: the order
// statistics at evenly spaced cumulative probabilities, always including
// the max so the CDF reaches 100%.  `values_at(ranks)` returns the order
// statistic at each rank; the ranks are strictly increasing, because
// there are at most n of them.
template <typename ValuesAt>
std::vector<CdfPoint> cdf_at_ranks(std::size_t n, std::size_t max_points,
                                   ValuesAt&& values_at) {
  std::vector<CdfPoint> out;
  if (n == 0 || max_points == 0) return out;
  const std::size_t points = std::min(max_points, n);
  std::vector<std::size_t> ranks;
  ranks.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    ranks.push_back((points == 1) ? n - 1 : (i * (n - 1)) / (points - 1));
  }
  const std::vector<double> values = values_at(ranks);
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    out.push_back({values[i], 100.0 * static_cast<double>(ranks[i] + 1) /
                                  static_cast<double>(n)});
  }
  return out;
}

}  // namespace

void StreamingStats::add(double x) noexcept {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void StreamingStats::merge(const StreamingStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_);
  const auto m = static_cast<double>(other.n_);
  mean_ += delta * m / (n + m);
  m2_ += other.m2_ + delta * delta * n * m / (n + m);
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double StreamingStats::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_);
}

double StreamingStats::stddev() const noexcept {
  return std::sqrt(variance());
}

double percentile_inplace(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const std::size_t ranks[] = {lo, hi};
  select_ranks(samples.data(), samples.data() + samples.size(), 0, ranks,
               ranks + (hi == lo ? 1 : 2));
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double percentile(std::vector<double> samples, double p) {
  return percentile_inplace(samples, p);
}

BoxSummary box_summary(std::vector<double>& samples) {
  BoxSummary b;
  b.count = samples.size();
  if (samples.empty()) return b;
  std::sort(samples.begin(), samples.end());
  auto at = [&](double p) {
    const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
  };
  b.min = samples.front();
  b.max = samples.back();
  b.p25 = at(25.0);
  b.median = at(50.0);
  b.p75 = at(75.0);
  b.p90 = at(90.0);
  double sum = 0.0;
  for (double x : samples) sum += x;
  b.mean = sum / static_cast<double>(samples.size());
  return b;
}

std::vector<CdfPoint> empirical_cdf(std::vector<double> samples,
                                    std::size_t max_points) {
  double* first = samples.data();
  double* last = first + samples.size();
  return cdf_at_ranks(
      samples.size(), max_points, [&](const std::vector<std::size_t>& ranks) {
        select_ranks(first, last, 0, ranks.data(), ranks.data() + ranks.size());
        std::vector<double> values;
        values.reserve(ranks.size());
        for (const std::size_t r : ranks) values.push_back(first[r]);
        return values;
      });
}

std::vector<CdfPoint> empirical_cdf_counts(
    const std::vector<std::uint64_t>& counts, std::size_t max_points) {
  std::uint64_t n = 0;
  for (const std::uint64_t c : counts) n += c;
  return cdf_at_ranks(
      static_cast<std::size_t>(n), max_points,
      [&](const std::vector<std::size_t>& ranks) {
        // One walk up the counts: `below` samples have a value under `v`,
        // and rank r holds the first value whose count carries past r.
        std::vector<double> values;
        values.reserve(ranks.size());
        std::size_t v = 0;
        std::uint64_t below = 0;
        for (const std::size_t r : ranks) {
          while (below + counts[v] <= r) below += counts[v++];
          values.push_back(static_cast<double>(v));
        }
        return values;
      });
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo),
      width_((hi - lo) / static_cast<double>(bins == 0 ? 1 : bins)),
      counts_(bins == 0 ? 1 : bins, 0) {}

std::size_t Histogram::bin_index(double x) const noexcept {
  if (x < lo_) return 0;
  const auto idx = static_cast<std::size_t>((x - lo_) / width_);
  return idx >= counts_.size() ? counts_.size() - 1 : idx;
}

void Histogram::add(double x) noexcept {
  ++counts_[bin_index(x)];
  ++total_;
}

double Histogram::bin_center(std::size_t bin) const {
  return lo_ + (static_cast<double>(bin) + 0.5) * width_;
}

double Histogram::bin_lo(std::size_t bin) const {
  return lo_ + static_cast<double>(bin) * width_;
}

double safe_ratio(double num, double den) noexcept {
  return den == 0.0 ? 0.0 : num / den;
}

double canonical_sum(const double* data, std::size_t n) noexcept {
  // The pinned lane-then-tree DAG documented in stats.h: four serial lane
  // chains, the (l0+l2)+(l1+l3) combine, then a serial tail.  GCC does not
  // reassociate floating point without -ffast-math, so vectorization flags
  // cannot move these bytes; tests/test_stats.cc pins them bit for bit.
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += data[i];
    acc1 += data[i + 1];
    acc2 += data[i + 2];
    acc3 += data[i + 3];
  }
  double r = (acc0 + acc2) + (acc1 + acc3);
  for (; i < n; ++i) r += data[i];
  return r;
}

double canonical_sum(const std::vector<double>& data) noexcept {
  return canonical_sum(data.data(), data.size());
}

double canonical_mean(const std::vector<double>& data) noexcept {
  if (data.empty()) return 0.0;
  return canonical_sum(data) / static_cast<double>(data.size());
}

}  // namespace msamp::util
