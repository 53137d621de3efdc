// Tests for burst detection (§5 definition: consecutive samples above 50%
// of line rate).
#include "analysis/burst_detect.h"

#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace msamp::analysis {
namespace {

std::vector<core::BucketSample> series(std::vector<std::int64_t> in_bytes) {
  std::vector<core::BucketSample> out(in_bytes.size());
  for (std::size_t i = 0; i < in_bytes.size(); ++i) {
    out[i].in_bytes = in_bytes[i];
  }
  return out;
}

constexpr std::int64_t kLine = 1562500;  // 12.5Gb/s for 1ms

TEST(BurstDetect, ThresholdIsHalfLineRate) {
  BurstDetectConfig cfg;
  EXPECT_EQ(burst_threshold_bytes(cfg), kLine / 2);
}

TEST(BurstDetect, ThresholdScalesWithInterval) {
  BurstDetectConfig cfg;
  cfg.interval = 100 * sim::kMicrosecond;
  EXPECT_EQ(burst_threshold_bytes(cfg), kLine / 20);
}

TEST(BurstDetect, SampleClassification) {
  BurstDetectConfig cfg;
  core::BucketSample below, above;
  below.in_bytes = kLine / 2;      // exactly at threshold: NOT bursty
  above.in_bytes = kLine / 2 + 1;
  EXPECT_FALSE(is_bursty_sample(below, cfg));
  EXPECT_TRUE(is_bursty_sample(above, cfg));
}

TEST(BurstDetect, EmptySeries) {
  EXPECT_TRUE(detect_bursts({}, BurstDetectConfig{}).empty());
}

TEST(BurstDetect, NoBurstsBelowThreshold) {
  const auto s = series({100, 200, kLine / 2, 0});
  EXPECT_TRUE(detect_bursts(s, BurstDetectConfig{}).empty());
}

TEST(BurstDetect, SingleSampleBurst) {
  const auto s = series({0, kLine, 0});
  const auto bursts = detect_bursts(s, BurstDetectConfig{});
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0].start, 1u);
  EXPECT_EQ(bursts[0].len, 1u);
  EXPECT_EQ(bursts[0].volume_bytes, kLine);
}

TEST(BurstDetect, ConsecutiveSamplesMerge) {
  const auto s = series({0, kLine, kLine - 1000, kLine, 0});
  const auto bursts = detect_bursts(s, BurstDetectConfig{});
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0].start, 1u);
  EXPECT_EQ(bursts[0].len, 3u);
  EXPECT_EQ(bursts[0].volume_bytes, 3 * kLine - 1000);
}

TEST(BurstDetect, GapSplitsBursts) {
  // A sample exactly at the threshold is not bursty, so it splits a run
  // like an idle one.
  for (const std::int64_t gap : {std::int64_t{0}, kLine / 2}) {
    const auto s = series({kLine, gap, kLine, kLine});
    const auto bursts = detect_bursts(s, BurstDetectConfig{});
    ASSERT_EQ(bursts.size(), 2u) << "gap=" << gap;
    EXPECT_EQ(bursts[0].start, 0u);
    EXPECT_EQ(bursts[0].len, 1u);
    EXPECT_EQ(bursts[0].volume_bytes, kLine);
    EXPECT_EQ(bursts[1].start, 2u);
    EXPECT_EQ(bursts[1].len, 2u);
    EXPECT_EQ(bursts[1].volume_bytes, 2 * kLine);
  }
}

TEST(BurstDetect, BurstAtSeriesEnd) {
  const auto s = series({0, 0, kLine, kLine});
  const auto bursts = detect_bursts(s, BurstDetectConfig{});
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0].start, 2u);
  EXPECT_EQ(bursts[0].len, 2u);
}

TEST(BurstDetect, CustomThresholdFraction) {
  BurstDetectConfig cfg;
  cfg.threshold_frac = 0.9;
  const auto s = series({kLine * 8 / 10, kLine * 95 / 100});
  const auto bursts = detect_bursts(s, cfg);
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0].start, 1u);
}

TEST(BurstDetect, WholeSeriesBursting) {
  // One run from sample 0, at lengths around one and two 64-sample words
  // (at 64 and 128 it covers whole words).
  for (const std::size_t n : {3u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    const auto s = series(std::vector<std::int64_t>(n, kLine));
    const auto bursts = detect_bursts(s, BurstDetectConfig{});
    ASSERT_EQ(bursts.size(), 1u) << "n=" << n;
    EXPECT_EQ(bursts[0].start, 0u);
    EXPECT_EQ(bursts[0].len, n);
    EXPECT_EQ(bursts[0].volume_bytes, static_cast<std::int64_t>(n) * kLine);
  }
}

TEST(BurstDetect, VolumeWrapsLikeACounter) {
  // Volumes add like u64 counters: a hostile trace wraps, never overflows.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const auto bursts =
      detect_bursts(series({kMax, kMax, 0}), BurstDetectConfig{});
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0].len, 2u);
  EXPECT_EQ(bursts[0].volume_bytes, -2);
}

TEST(BurstDetect, MatchesNaiveScanOnRandomSeries) {
  // Every length through two words plus one, with samples idle, exactly at
  // the threshold, just above it, at line rate, or random around it, in
  // stretches long and short.
  const BurstDetectConfig cfg;
  util::Rng rng(0x7123u);
  for (std::size_t n = 0; n <= 129; ++n) {
    std::vector<std::int64_t> in_bytes(n);
    std::int64_t value = 0;
    for (auto& x : in_bytes) {
      if (rng.bernoulli(0.3)) {
        switch (rng.uniform_int(5)) {
          case 0: value = 0; break;
          case 1: value = kLine / 2; break;
          case 2: value = kLine / 2 + 1; break;
          case 3: value = kLine; break;
          default:
            value = static_cast<std::int64_t>(
                rng.uniform_int(static_cast<std::uint64_t>(kLine)));
            break;
        }
      }
      x = value;
    }
    const auto s = series(in_bytes);
    std::vector<Burst> want;
    for (std::size_t i = 0; i < n; ++i) {
      if (!is_bursty_sample(s[i], cfg)) continue;
      if (!want.empty() && want.back().start + want.back().len == i) {
        ++want.back().len;
        want.back().volume_bytes += in_bytes[i];
      } else {
        want.push_back({i, 1, in_bytes[i]});
      }
    }
    const auto got = detect_bursts(s, cfg);
    ASSERT_EQ(got.size(), want.size()) << "n=" << n;
    for (std::size_t b = 0; b < got.size(); ++b) {
      EXPECT_EQ(got[b].start, want[b].start) << "n=" << n << " b=" << b;
      EXPECT_EQ(got[b].len, want[b].len) << "n=" << n << " b=" << b;
      EXPECT_EQ(got[b].volume_bytes, want[b].volume_bytes)
          << "n=" << n << " b=" << b;
    }
  }
}

}  // namespace
}  // namespace msamp::analysis
