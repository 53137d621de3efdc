// Tests for util statistics: Welford accumulators, percentiles, CDFs,
// box summaries, histograms and the pinned canonical_sum fold.
#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace msamp::util {
namespace {

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

TEST(StreamingStats, EmptyIsZero) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(StreamingStats, BasicMoments) {
  StreamingStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.sum(), 40.0);
}

TEST(StreamingStats, MergeMatchesSequential) {
  Rng rng(1);
  StreamingStats whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    whole.add(x);
    (i < 400 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-6);
  EXPECT_EQ(a.min(), whole.min());
  EXPECT_EQ(a.max(), whole.max());
}

TEST(StreamingStats, MergeWithEmpty) {
  StreamingStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);  // adopt
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Percentile, EmptyIsZero) {
  EXPECT_EQ(percentile({}, 50.0), 0.0);
}

TEST(Percentile, SingleElement) {
  EXPECT_EQ(percentile({7.0}, 0.0), 7.0);
  EXPECT_EQ(percentile({7.0}, 50.0), 7.0);
  EXPECT_EQ(percentile({7.0}, 100.0), 7.0);
}

TEST(Percentile, LinearInterpolation) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 17.5);
}

TEST(Percentile, UnsortedInput) {
  EXPECT_DOUBLE_EQ(percentile({30.0, 10.0, 40.0, 20.0}, 50.0), 25.0);
}

TEST(Percentile, ClampedP) {
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, -10.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 200.0), 2.0);
}

TEST(BoxSummary, KnownValues) {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(static_cast<double>(i));
  const BoxSummary b = box_summary(v);
  EXPECT_EQ(b.count, 101u);
  EXPECT_EQ(b.min, 1.0);
  EXPECT_EQ(b.max, 101.0);
  EXPECT_DOUBLE_EQ(b.median, 51.0);
  EXPECT_DOUBLE_EQ(b.p25, 26.0);
  EXPECT_DOUBLE_EQ(b.p75, 76.0);
  EXPECT_DOUBLE_EQ(b.p90, 91.0);
  EXPECT_DOUBLE_EQ(b.mean, 51.0);
}

TEST(BoxSummary, Empty) {
  std::vector<double> v;
  const BoxSummary b = box_summary(v);
  EXPECT_EQ(b.count, 0u);
}

TEST(EmpiricalCdf, MonotoneAndComplete) {
  Rng rng(2);
  std::vector<double> v;
  for (int i = 0; i < 5000; ++i) v.push_back(rng.normal(0, 1));
  const auto cdf = empirical_cdf(v, 50);
  ASSERT_EQ(cdf.size(), 50u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].value, cdf[i - 1].value);
    EXPECT_GE(cdf[i].percent, cdf[i - 1].percent);
  }
  EXPECT_DOUBLE_EQ(cdf.back().percent, 100.0);
}

TEST(EmpiricalCdf, FewerSamplesThanPoints) {
  const auto cdf = empirical_cdf({3.0, 1.0, 2.0}, 100);
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_EQ(cdf.front().value, 1.0);
  EXPECT_EQ(cdf.back().value, 3.0);
}

TEST(EmpiricalCdf, Empty) {
  EXPECT_TRUE(empirical_cdf({}, 10).empty());
}

// The sort-based percentile and CDF that selection replaced, restated
// here so the selecting versions are checked against them bit for bit.
double sorted_percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

std::vector<CdfPoint> sorted_cdf(std::vector<double> v,
                                 std::size_t max_points) {
  std::vector<CdfPoint> out;
  if (v.empty() || max_points == 0) return out;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t points = std::min(max_points, n);
  for (std::size_t i = 0; i < points; ++i) {
    const std::size_t idx =
        (points == 1) ? n - 1 : (i * (n - 1)) / (points - 1);
    out.push_back({v[idx], 100.0 * static_cast<double>(idx + 1) /
                               static_cast<double>(n)});
  }
  return out;
}

void expect_same_cdf(const std::vector<CdfPoint>& got,
                     const std::vector<CdfPoint>& want,
                     const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(bits_of(got[i].value), bits_of(want[i].value))
        << where << " point " << i;
    EXPECT_EQ(bits_of(got[i].percent), bits_of(want[i].percent))
        << where << " point " << i;
  }
}

// Sample sets of every size through a few thousand, in three shapes:
// distinct doubles, heavy ties, and a strictly decreasing run.
std::vector<std::vector<double>> reference_inputs() {
  Rng rng(0x5e1ec7u);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 70; ++n) sizes.push_back(n);
  for (std::size_t n : {127u, 128u, 129u, 500u, 1023u, 2048u, 3001u}) {
    sizes.push_back(n);
  }
  std::vector<std::vector<double>> out;
  for (const std::size_t n : sizes) {
    std::vector<double> distinct(n), ties(n), reversed(n);
    for (std::size_t i = 0; i < n; ++i) {
      distinct[i] = rng.lognormal(0.0, 3.0) - rng.lognormal(0.0, 3.0);
      ties[i] = static_cast<double>(rng.uniform_int(5)) * 0.25;
      reversed[i] = static_cast<double>(n - i) / 3.0;
    }
    out.push_back(std::move(distinct));
    out.push_back(std::move(ties));
    out.push_back(std::move(reversed));
  }
  return out;
}

TEST(Percentile, MatchesSortReference) {
  for (const auto& v : reference_inputs()) {
    for (const double p :
         {-5.0, 0.0, 0.5, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0, 150.0}) {
      EXPECT_EQ(bits_of(percentile(v, p)), bits_of(sorted_percentile(v, p)))
          << "n=" << v.size() << " p=" << p;
    }
  }
}

TEST(Percentile, InplaceStaysExactOnAReorderedBuffer) {
  // A second call reads the buffer the first one reordered.
  for (const auto& v : reference_inputs()) {
    std::vector<double> buf = v;
    for (const double p : {50.0, 90.0, 10.0, 99.0, 50.0}) {
      EXPECT_EQ(bits_of(percentile_inplace(buf, p)),
                bits_of(sorted_percentile(v, p)))
          << "n=" << v.size() << " p=" << p;
    }
  }
}

TEST(EmpiricalCdf, MatchesSortReference) {
  for (const auto& v : reference_inputs()) {
    const std::size_t n = v.size();
    for (const std::size_t points : {std::size_t{0}, std::size_t{1},
                                     std::size_t{2}, std::size_t{64}, n,
                                     n + 1}) {
      expect_same_cdf(empirical_cdf(v, points), sorted_cdf(v, points),
                      "n=" + std::to_string(n) +
                          " points=" + std::to_string(points));
    }
  }
}

std::vector<double> expand(const std::vector<std::uint64_t>& counts) {
  std::vector<double> out;
  for (std::size_t v = 0; v < counts.size(); ++v) {
    out.insert(out.end(), counts[v], static_cast<double>(v));
  }
  return out;
}

TEST(EmpiricalCdfCounts, EqualsTheCdfOfTheExpandedSamples) {
  Rng rng(0xc0417u);
  std::vector<std::vector<std::uint64_t>> cases = {
      {},               // no values at all
      {0, 0, 0},        // values, but no samples
      {5},              // one value, value 0
      {0, 0, 0, 7},     // one value, zero counts below it
      {0, 3, 0, 0, 0},  // zero counts at both ends
      {1, 0, 1},        // two samples
  };
  for (int c = 0; c < 200; ++c) {
    std::vector<std::uint64_t> counts(
        static_cast<std::size_t>(1 + rng.uniform_int(40)));
    for (auto& k : counts) {
      // Mostly empty slots, a few heavy ones.
      k = rng.uniform_int(4) == 0 ? rng.uniform_int(201) : 0;
    }
    cases.push_back(std::move(counts));
  }
  for (const auto& counts : cases) {
    const std::vector<double> samples = expand(counts);
    const std::size_t n = samples.size();
    for (const std::size_t points : {std::size_t{0}, std::size_t{1},
                                     std::size_t{2}, std::size_t{64}, n,
                                     n + 1}) {
      const std::string where = "values=" + std::to_string(counts.size()) +
                                " n=" + std::to_string(n) +
                                " points=" + std::to_string(points);
      expect_same_cdf(empirical_cdf_counts(counts, points),
                      empirical_cdf(samples, points), where);
      expect_same_cdf(empirical_cdf_counts(counts, points),
                      sorted_cdf(samples, points), where);
    }
  }
}

TEST(Histogram, BinAssignment) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.0);    // bin 0
  h.add(0.99);   // bin 0
  h.add(1.0);    // bin 1
  h.add(9.99);   // bin 9
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, OutOfRangeClamps) {
  Histogram h(0.0, 10.0, 5);
  h.add(-100.0);
  h.add(1e9);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(4), 1u);
}

TEST(Histogram, BinGeometry) {
  Histogram h(2.0, 12.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_width(), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_center(4), 11.0);
  EXPECT_EQ(h.bin_index(2.0), 0u);
  EXPECT_EQ(h.bin_index(3.999), 0u);
  EXPECT_EQ(h.bin_index(4.0), 1u);
}

TEST(SafeRatio, Basics) {
  EXPECT_DOUBLE_EQ(safe_ratio(6.0, 2.0), 3.0);
  EXPECT_DOUBLE_EQ(safe_ratio(6.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(safe_ratio(0.0, 0.0), 0.0);
}

// The pinned fold DAG from stats.h, restated independently of stats.cc so
// the reference itself is under test.
double pinned_fold(const double* v, std::size_t n) {
  constexpr std::size_t kLanes = 4;
  double acc[kLanes] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) acc[j] += v[i + j];
  }
  double r = (acc[0] + acc[2]) + (acc[1] + acc[3]);
  for (; i < n; ++i) r += v[i];
  return r;
}

TEST(CanonicalSum, BitIdenticalToPinnedFold) {
  // Every length through two 64-value words plus a ragged tail, each read
  // from a start misaligned by 0..3 doubles.
  Rng rng(0xf01du);
  for (std::size_t n = 0; n <= 129; ++n) {
    for (std::size_t off = 0; off < 4; ++off) {
      std::vector<double> v(n + off);
      for (auto& x : v) x = rng.normal(0.0, 1e6);
      const double want = pinned_fold(v.data() + off, n);
      EXPECT_EQ(bits_of(canonical_sum(v.data() + off, n)), bits_of(want))
          << "n=" << n << " off=" << off;
    }
  }
}

TEST(CanonicalSum, SpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> cases = {
      {},                                  // empty -> +0.0
      {-0.0, -0.0, -0.0, -0.0},            // full group of -0.0
      {-0.0},                              // tail-only -0.0
      {inf, 1.0, 2.0, 3.0, 4.0},           // inf propagates
      {-inf, -inf, 0.0, 5.0},              // -inf propagates
      {1e308, 1e308, -1e308, -1e308},      // overflow then cancel, per lane
      {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}  // inexact decimals, ragged tail
  };
  for (const auto& v : cases) {
    EXPECT_EQ(bits_of(canonical_sum(v.data(), v.size())),
              bits_of(pinned_fold(v.data(), v.size())))
        << "n=" << v.size();
  }
  // NaN in, NaN out (only the predicate is pinned, not the payload), and
  // inf + -inf inside one lane chain is NaN too.
  const std::vector<double> with_nan = {1.0, nan, 2.0, 3.0, 4.0};
  EXPECT_TRUE(std::isnan(canonical_sum(with_nan.data(), with_nan.size())));
  const std::vector<double> cancel_inf = {inf, 0.0, 0.0, 0.0, -inf};
  EXPECT_TRUE(
      std::isnan(canonical_sum(cancel_inf.data(), cancel_inf.size())));
}

TEST(CanonicalSum, VectorAndMeanFormsUseThePinnedFold) {
  Rng rng(0xca40u);
  std::vector<double> v(257);
  for (auto& x : v) x = rng.lognormal(8.0, 2.0);
  const double want = pinned_fold(v.data(), v.size());
  EXPECT_EQ(bits_of(canonical_sum(v)), bits_of(want));
  EXPECT_EQ(bits_of(canonical_mean(v)), bits_of(want / 257.0));
  EXPECT_EQ(canonical_mean({}), 0.0);
}

}  // namespace
}  // namespace msamp::util
