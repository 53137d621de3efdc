// Tests for SyncMillisampler: combine/trim semantics and the coordinated
// collection across a rack's samplers.
#include "core/sync_controller.h"

#include <string>

#include <gtest/gtest.h>

namespace msamp::core {
namespace {

RunRecord record(net::HostId host, sim::SimTime start, int buckets,
                 std::int64_t fill) {
  RunRecord r;
  r.host = host;
  r.start = start;
  r.interval = sim::kMillisecond;
  r.buckets.resize(static_cast<std::size_t>(buckets));
  for (auto& b : r.buckets) b.in_bytes = fill;
  return r;
}

TEST(CombineRuns, TrimsToCommonWindow) {
  // Host A spans [0, 10ms); host B spans [3ms, 13ms).  The overlap is
  // [3ms, 10ms) -> 7 samples.
  const auto sync = combine_runs(
      {record(0, 0, 10, 100), record(1, 3 * sim::kMillisecond, 10, 200)});
  EXPECT_EQ(sync.grid_start, 3 * sim::kMillisecond);
  EXPECT_EQ(sync.num_samples(), 7u);
  EXPECT_EQ(sync.num_servers(), 2u);
  // A's samples at the shifted grid still read 100 (constant series).
  EXPECT_EQ(sync.series[0][0].in_bytes, 100);
  EXPECT_EQ(sync.series[1][0].in_bytes, 200);
}

TEST(CombineRuns, AverageTrimmedLengthMatchesPaperRatio) {
  // §5: ~2s nominal runs trim to ~1.85s on average; with sub-ms skew the
  // trim loss must be at most a couple of buckets.
  const auto sync = combine_runs({
      record(0, 0, 2000, 1),
      record(1, 300 * sim::kMicrosecond, 2000, 1),
      record(2, 700 * sim::kMicrosecond, 2000, 1),
  });
  EXPECT_GE(sync.num_samples(), 1998u);
}

TEST(CombineRuns, EmptyInput) {
  const auto sync = combine_runs({});
  EXPECT_EQ(sync.num_servers(), 0u);
  EXPECT_EQ(sync.num_samples(), 0u);
}

TEST(CombineRuns, AllInvalidYieldsEmpty) {
  RunRecord never_started;
  never_started.host = 3;
  never_started.interval = sim::kMillisecond;
  const auto sync = combine_runs({never_started});
  EXPECT_EQ(sync.num_samples(), 0u);
}

TEST(CombineRuns, IdleHostGetsZeroSeries) {
  RunRecord idle;
  idle.host = 7;
  idle.interval = sim::kMillisecond;
  const auto sync = combine_runs({record(0, 0, 10, 50), idle});
  ASSERT_EQ(sync.num_servers(), 2u);
  EXPECT_EQ(sync.hosts[1], 7u);
  for (const auto& s : sync.series[1]) EXPECT_EQ(s.in_bytes, 0);
}

TEST(CombineRuns, DisjointWindowsYieldEmpty) {
  const auto sync = combine_runs(
      {record(0, 0, 5, 1), record(1, 100 * sim::kMillisecond, 5, 1)});
  EXPECT_EQ(sync.num_samples(), 0u);
}

TEST(CombineRuns, DurationHelper) {
  const auto sync = combine_runs({record(0, 0, 10, 1)});
  EXPECT_EQ(sync.duration(), 10 * sim::kMillisecond);
}

TEST(CombineRuns, ReusedOutputEqualsByValue) {
  // One output combined into again and again must equal a fresh
  // combination every time: more hosts then fewer, a longer grid then a
  // shorter one, an empty input, a non-overlapping one, and a recovery.
  RunRecord idle;
  idle.host = 9;
  idle.interval = sim::kMillisecond;
  struct Case {
    std::vector<RunRecord> records;
    bool early_return;  ///< empty input or no common window
  };
  const Case cases[] = {
      {{record(0, 0, 10, 100), record(1, 3 * sim::kMillisecond, 10, 200),
        record(2, 300 * sim::kMicrosecond, 12, 300)},
       false},
      {{record(4, sim::kMillisecond, 10, 5)}, false},
      {{record(0, 0, 40, 7), record(1, 500 * sim::kMicrosecond, 40, 8)},
       false},
      {{record(0, 2 * sim::kMillisecond, 6, 9), idle, record(2, 0, 8, 4)},
       false},
      {{}, true},
      {{record(0, 0, 5, 1), record(1, 100 * sim::kMillisecond, 5, 1)}, true},
      {{record(3, 0, 10, 1), idle}, false},
  };
  SyncRun out;
  for (const Case& c : cases) {
    SCOPED_TRACE("hosts " + std::to_string(c.records.size()));
    combine_runs(c.records, out);
    const SyncRun want = combine_runs(c.records);
    EXPECT_EQ(out.grid_start, want.grid_start);
    EXPECT_EQ(out.interval, want.interval);
    EXPECT_EQ(out.hosts, want.hosts);
    EXPECT_TRUE(out.series == want.series);
    if (c.early_return) {
      EXPECT_EQ(out.grid_start, -1);
      EXPECT_EQ(out.num_samples(), 0u);
    } else {
      EXPECT_GT(out.num_samples(), 0u);
    }
  }
}

struct ControllerFixture : ::testing::Test {
  sim::Simulator simulator;
  std::vector<std::unique_ptr<net::Host>> hosts;
  std::vector<std::unique_ptr<Sampler>> samplers;
  SyncController controller{simulator};

  void make(int n, sim::SimDuration clock_spread = 0) {
    SamplerConfig cfg;
    cfg.filter.num_buckets = 20;
    cfg.filter.num_cpus = 2;
    cfg.grace = 5 * sim::kMillisecond;
    for (int i = 0; i < n; ++i) {
      hosts.push_back(std::make_unique<net::Host>(
          simulator, static_cast<net::HostId>(i), net::LinkConfig{},
          net::NicConfig{}, [](const net::Packet&) {}));
      const sim::SimDuration offset =
          clock_spread == 0 ? 0 : (i * clock_spread) / n;
      samplers.push_back(
          std::make_unique<Sampler>(simulator, *hosts.back(), offset, cfg));
      controller.add_sampler(samplers.back().get());
    }
  }

  void traffic_all(sim::SimDuration period, sim::SimTime until) {
    for (sim::SimTime t = 0; t < until; t += period) {
      simulator.schedule_at(t, [this] {
        for (auto& h : hosts) {
          net::Packet p;
          p.flow = 9;
          p.bytes = 500;
          p.is_ack = true;
          h->deliver_from_wire(p);
        }
      });
    }
  }
};

TEST_F(ControllerFixture, CollectsAlignedRun) {
  make(4);
  traffic_all(sim::kMillisecond, 100 * sim::kMillisecond);
  SyncRun sync;
  bool done = false;
  ASSERT_TRUE(controller.collect(sim::kMillisecond, 10 * sim::kMillisecond,
                                 [&](const SyncRun& s) {
                                   sync = s;
                                   done = true;
                                 }));
  simulator.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(sync.num_servers(), 4u);
  EXPECT_GE(sync.num_samples(), 18u);
  // Every aligned series carries the per-ms traffic.
  for (const auto& series : sync.series) {
    EXPECT_EQ(series[2].in_bytes, 500);
  }
}

TEST_F(ControllerFixture, SkewedClocksStillAlign) {
  make(4, 800 * sim::kMicrosecond);  // spread just under one bucket
  traffic_all(sim::kMillisecond, 100 * sim::kMillisecond);
  SyncRun sync;
  controller.collect(sim::kMillisecond, 10 * sim::kMillisecond,
                     [&](const SyncRun& s) { sync = s; });
  simulator.run();
  ASSERT_GE(sync.num_samples(), 17u);
  // Interpolated values remain close to the true 500B/ms everywhere.
  for (const auto& series : sync.series) {
    for (std::size_t k = 1; k + 1 < sync.num_samples(); ++k) {
      EXPECT_NEAR(static_cast<double>(series[k].in_bytes), 500.0, 5.0);
    }
  }
}

TEST_F(ControllerFixture, SecondCollectWhilePendingFails) {
  make(2);
  traffic_all(sim::kMillisecond, 100 * sim::kMillisecond);
  EXPECT_TRUE(controller.collect(sim::kMillisecond, sim::kMillisecond,
                                 [](const SyncRun&) {}));
  EXPECT_FALSE(controller.collect(sim::kMillisecond, sim::kMillisecond,
                                  [](const SyncRun&) {}));
  simulator.run();
  // After completion a new collection is accepted again.
  EXPECT_TRUE(controller.collect(sim::kMillisecond, sim::kMillisecond,
                                 [](const SyncRun&) {}));
  simulator.run();
}

TEST_F(ControllerFixture, NoSamplersRejected) {
  EXPECT_FALSE(controller.collect(sim::kMillisecond, 0, [](const SyncRun&) {}));
}

}  // namespace
}  // namespace msamp::core
