// Tests for the rack diagnosis report and the §4.6 stall-artifact detector.
#include "analysis/diagnose.h"

#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "fleet/fluid_rack.h"

namespace msamp::analysis {
namespace {

constexpr std::int64_t kLine = 1562500;

std::vector<core::BucketSample> series(std::vector<std::int64_t> in_bytes) {
  std::vector<core::BucketSample> out(in_bytes.size());
  for (std::size_t i = 0; i < in_bytes.size(); ++i) {
    out[i].in_bytes = in_bytes[i];
  }
  return out;
}

TEST(StallArtifacts, DetectsGapThenSpike) {
  // Smooth 300KB/ms, then 3 silent ms, then a 2x-line-rate catch-up.
  const auto s = series({300000, 300000, 0, 0, 0, 2 * kLine, 300000});
  const auto spikes = find_stall_artifacts(s, BurstDetectConfig{});
  ASSERT_EQ(spikes.size(), 1u);
  EXPECT_EQ(spikes[0], 5u);
}

TEST(StallArtifacts, GapWithoutSpikeIsNotFlagged) {
  // A quiet period followed by normal traffic is just idleness.
  const auto s = series({300000, 0, 0, 0, 300000});
  EXPECT_TRUE(find_stall_artifacts(s, BurstDetectConfig{}).empty());
}

TEST(StallArtifacts, SpikeWithoutGapIsNotFlagged) {
  // GRO/interpolation can nudge a bucket slightly over line rate without
  // any stall; without a preceding silent gap it is not an artifact.
  const auto s = series({300000, 300000, 2 * kLine, 300000});
  EXPECT_TRUE(find_stall_artifacts(s, BurstDetectConfig{}).empty());
}

TEST(StallArtifacts, SubLineSpikeIsNotFlagged) {
  const auto s = series({300000, 0, 0, 0, kLine - 1, 300000});
  EXPECT_TRUE(find_stall_artifacts(s, BurstDetectConfig{}).empty());
}

TEST(StallArtifacts, MultipleStalls) {
  const auto s = series({kLine / 2, 0, 0, 2 * kLine, kLine / 2, 0, 0, 0,
                         3 * kLine, 100});
  const auto spikes = find_stall_artifacts(s, BurstDetectConfig{});
  ASSERT_EQ(spikes.size(), 2u);
  EXPECT_EQ(spikes[0], 3u);
  EXPECT_EQ(spikes[1], 8u);
}

TEST(StallArtifacts, SpikeIsMeasuredAgainstTheLineRate) {
  // At 25 Gb/s a 1ms bucket holds 3,125,000 B: 2 MB after a gap is a
  // genuine 64% burst, and only a bucket above 1.2x that is a catch-up.
  const BurstDetectConfig fast{.line_rate_gbps = 25.0};
  const auto burst = series({0, 0, 2000000, 2000000, 0});
  EXPECT_TRUE(find_stall_artifacts(burst, fast).empty());
  EXPECT_EQ(find_stall_artifacts(burst, BurstDetectConfig{}).size(), 1u);
  const auto spikes =
      find_stall_artifacts(series({0, 0, 3800000, 2000000, 0}), fast);
  ASSERT_EQ(spikes.size(), 1u);
  EXPECT_EQ(spikes[0], 2u);
}

TEST(StallArtifacts, SpikeIsMeasuredAgainstTheInterval) {
  // At 100us a 12.5 Gb/s bucket holds 156,250 B: 3x that after a gap is
  // the catch-up signature though it is well under a 1ms bucket.
  const BurstDetectConfig fine{.interval = 100 * sim::kMicrosecond};
  const auto stall = series({50000, 50000, 0, 0, 0, 468750, 50000});
  const auto spikes = find_stall_artifacts(stall, fine);
  ASSERT_EQ(spikes.size(), 1u);
  EXPECT_EQ(spikes[0], 5u);
  EXPECT_TRUE(find_stall_artifacts(stall, BurstDetectConfig{}).empty());
  EXPECT_TRUE(find_stall_artifacts(
                  series({50000, 50000, 0, 0, 0, 187000, 50000}), fine)
                  .empty());
}

TEST(StallArtifacts, SpikeThresholdSaturatesAtInt64Max) {
  // 1.2x the bytes of a 1e300 Gb/s line, or of a 12.5 Gb/s line over the
  // longest interval, is past INT64_MAX: the spike threshold saturates
  // there and no bucket exceeds it.
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  const auto s = series({300000, 0, 0, 0, kMax, 300000});
  EXPECT_EQ(find_stall_artifacts(s, BurstDetectConfig{}).size(), 1u);
  for (const BurstDetectConfig cfg :
       {BurstDetectConfig{.line_rate_gbps = 1e300},
        BurstDetectConfig{.interval = kMax}}) {
    EXPECT_TRUE(find_stall_artifacts(s, cfg).empty());
  }
}

core::SyncRun synthetic_run() {
  core::SyncRun run;
  run.grid_start = 0;
  run.interval = sim::kMillisecond;
  // Server 0: heavy-incast lossy burster.  Server 1: fan-out burster.
  // Server 2: idle.  Server 3: smooth traffic with a stall artifact.
  run.hosts = {0, 1, 2, 3};
  run.series.assign(4, std::vector<core::BucketSample>(20));
  for (std::size_t k = 4; k < 8; ++k) {
    run.series[0][k].in_bytes = kLine;
    run.series[0][k].connections = 60.0;
    run.series[1][k].in_bytes = kLine;
    run.series[1][k].connections = 5.0;
  }
  run.series[0][8].in_retx_bytes = 5000;  // repair lands after the burst
  for (std::size_t k = 0; k < 20; ++k) {
    run.series[3][k].in_bytes = 200000;
  }
  run.series[3][10].in_bytes = 0;
  run.series[3][11].in_bytes = 0;
  run.series[3][12].in_bytes = 0;
  run.series[3][13].in_bytes = 3 * kLine;  // catch-up batch
  return run;
}

TEST(Diagnose, FullReport) {
  const auto report = diagnose(synthetic_run());
  // Worst millisecond: samples 4-7 have both bursters (+ the stall server
  // is below threshold) -> contention 2.
  EXPECT_GE(report.worst_sample, 4u);
  EXPECT_LE(report.worst_sample, 7u);
  EXPECT_EQ(report.summary.max, 2);

  ASSERT_EQ(report.servers.size(), 4u);
  EXPECT_EQ(report.servers[0].pattern, TrafficPattern::kHeavyIncast);
  EXPECT_EQ(report.servers[1].pattern, TrafficPattern::kFanOut);
  EXPECT_EQ(report.servers[2].pattern, TrafficPattern::kIdle);
  EXPECT_EQ(report.servers[0].lossy_bursts, 1u);
  EXPECT_EQ(report.servers[1].lossy_bursts, 0u);

  // The stall artifact is found on server 3 and flagged at run level.
  EXPECT_TRUE(report.measurement_artifacts);
  ASSERT_EQ(report.servers[3].stall_artifacts.size(), 1u);
  EXPECT_EQ(report.servers[3].stall_artifacts[0], 13u);

  // Loss hotspot list leads with server 0 and omits lossless servers.
  ASSERT_EQ(report.loss_hotspots.size(), 1u);
  EXPECT_EQ(report.loss_hotspots[0], 0u);
}

TEST(Diagnose, LossHotspotsBreakTiesByServerIndex) {
  // 24 servers: more than the 16 that std::sort insertion-sorts, which
  // would keep tied servers in index order by accident.  Servers 3 and 20
  // have two lossy bursts, six others one each.
  core::SyncRun run;
  run.interval = sim::kMillisecond;
  run.series.assign(24, std::vector<core::BucketSample>(30));
  const auto lossy_burst = [&](std::size_t s, std::size_t start) {
    for (std::size_t k = start; k < start + 4; ++k) {
      run.series[s][k].in_bytes = kLine;
    }
    run.series[s][start + 4].in_retx_bytes = 5000;
  };
  for (std::size_t s : {3u, 20u}) {
    lossy_burst(s, 4);
    lossy_burst(s, 20);
  }
  for (std::size_t s : {1u, 5u, 8u, 12u, 17u, 22u}) lossy_burst(s, 4);
  for (std::size_t s = 0; s < run.series.size(); ++s) {
    run.hosts.push_back(static_cast<net::HostId>(s));
  }

  const auto report = diagnose(run);
  EXPECT_EQ(report.servers[3].lossy_bursts, 2u);
  EXPECT_EQ(report.servers[12].lossy_bursts, 1u);
  EXPECT_EQ(report.loss_hotspots,
            (std::vector<std::size_t>{3, 20, 1, 5, 8}));
}

TEST(Diagnose, CleanFluidRunHasNoArtifacts) {
  workload::RackMeta rack;
  rack.rack_id = 1;
  rack.region = workload::RegionId::kRegA;
  rack.intensity = 1.5;
  rack.server_service.assign(16, 0);
  rack.server_kind.assign(16, workload::TaskKind::kCache);
  fleet::FleetConfig cfg;
  cfg.samples_per_run = 200;
  cfg.warmup_ms = 20;
  fleet::FluidRack fluid(rack, cfg, 6, util::Rng(9));
  const auto report = diagnose(fluid.run().sync);
  // Genuine traffic cannot exceed line rate per bucket, so no artifacts.
  EXPECT_FALSE(report.measurement_artifacts);
  EXPECT_EQ(report.servers.size(), 16u);
  EXPECT_GT(report.summary.avg, 0.0);
}

TEST(Diagnose, EmptyRun) {
  const auto report = diagnose(core::SyncRun{});
  EXPECT_TRUE(report.servers.empty());
  EXPECT_FALSE(report.measurement_artifacts);
  EXPECT_EQ(report.summary.max, 0);
}

}  // namespace
}  // namespace msamp::analysis
