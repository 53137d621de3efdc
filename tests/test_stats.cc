// Tests for util statistics: Welford accumulators, percentiles, CDFs,
// box summaries, histograms and the pinned canonical_sum fold.
#include "util/stats.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace msamp::util {
namespace {

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

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
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
