// Tests for the tc-filter state machine (§4.1): start latching, bucket
// arithmetic, auto-stop, per-CPU isolation, aggregation, the batch fast
// path, and the §4.3 memory-footprint math.
#include "core/tc_filter.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace msamp::core {
namespace {

net::Packet seg(net::FlowId flow, std::int32_t bytes, bool retx = false,
                bool ce = false) {
  net::Packet p;
  p.flow = flow;
  p.bytes = bytes;
  p.retx_mark = retx;
  p.ce = ce;
  return p;
}

TcFilterConfig small() {
  TcFilterConfig cfg;
  cfg.num_cpus = 4;
  cfg.num_buckets = 10;
  return cfg;
}

TEST(TcFilter, DisabledCountsNothing) {
  TcFilter f(small());
  EXPECT_FALSE(f.process(0, seg(1, 100), true, 0));
  const auto agg = f.read_aggregated();
  EXPECT_EQ(agg[0].in_bytes, 0);
}

TEST(TcFilter, StartLatchedByFirstPacket) {
  TcFilter f(small());
  f.enable(sim::kMillisecond);
  EXPECT_FALSE(f.started());
  f.process(0, seg(1, 100), true, 5 * sim::kMillisecond);
  EXPECT_TRUE(f.started());
  EXPECT_EQ(f.start_time(), 5 * sim::kMillisecond);
  // The first packet lands in bucket 0 regardless of absolute time.
  EXPECT_EQ(f.read_aggregated()[0].in_bytes, 100);
}

TEST(TcFilter, BucketArithmetic) {
  TcFilter f(small());
  f.enable(sim::kMillisecond);
  const sim::SimTime t0 = 7 * sim::kMillisecond + 123;
  f.process(0, seg(1, 10), true, t0);
  f.process(0, seg(1, 20), true, t0 + sim::kMillisecond - 1);  // still bucket 0
  f.process(0, seg(1, 30), true, t0 + sim::kMillisecond);      // bucket 1
  f.process(0, seg(1, 40), true, t0 + 9 * sim::kMillisecond);  // bucket 9
  const auto agg = f.read_aggregated();
  EXPECT_EQ(agg[0].in_bytes, 30);
  EXPECT_EQ(agg[1].in_bytes, 30);
  EXPECT_EQ(agg[9].in_bytes, 40);
}

TEST(TcFilter, AutoStopPastLastBucket) {
  TcFilter f(small());
  f.enable(sim::kMillisecond);
  f.process(0, seg(1, 10), true, 0);
  EXPECT_TRUE(f.enabled());
  // Past bucket 9: the filter clears its own enabled flag (§4.1) and the
  // packet is not counted.
  EXPECT_FALSE(f.process(0, seg(1, 10), true, 10 * sim::kMillisecond));
  EXPECT_FALSE(f.enabled());
  // Further packets are on the cheap early-out path.
  EXPECT_FALSE(f.process(0, seg(1, 10), true, 3 * sim::kMillisecond));
  EXPECT_EQ(f.read_aggregated()[0].in_bytes, 10);
}

TEST(TcFilter, EnableClearsCounters) {
  TcFilter f(small());
  f.enable(sim::kMillisecond);
  f.process(0, seg(1, 100), true, 0);
  f.enable(sim::kMillisecond);
  EXPECT_EQ(f.read_aggregated()[0].in_bytes, 0);
  EXPECT_FALSE(f.started());
}

TEST(TcFilter, DirectionalCounters) {
  TcFilter f(small());
  f.enable(sim::kMillisecond);
  f.process(0, seg(1, 100), true, 0);             // in
  f.process(0, seg(1, 50), false, 0);             // out
  f.process(0, seg(1, 25, /*retx=*/true), true, 0);
  f.process(0, seg(1, 10, /*retx=*/true), false, 0);
  f.process(0, seg(1, 9, false, /*ce=*/true), true, 0);
  const auto agg = f.read_aggregated();
  EXPECT_EQ(agg[0].in_bytes, 134);
  EXPECT_EQ(agg[0].out_bytes, 60);
  EXPECT_EQ(agg[0].in_retx_bytes, 25);
  EXPECT_EQ(agg[0].out_retx_bytes, 10);
  EXPECT_EQ(agg[0].in_ecn_bytes, 9);
}

TEST(TcFilter, CeOnEgressNotCounted) {
  // Millisampler only counts ECN-marked *ingress* bytes.
  TcFilter f(small());
  f.enable(sim::kMillisecond);
  f.process(0, seg(1, 100, false, /*ce=*/true), false, 0);
  EXPECT_EQ(f.read_aggregated()[0].in_ecn_bytes, 0);
}

TEST(TcFilter, PerCpuRowsAreIsolated) {
  TcFilter f(small());
  f.enable(sim::kMillisecond);
  f.process(0, seg(1, 100), true, 0);
  f.process(2, seg(2, 50), true, 0);
  EXPECT_EQ(f.raw(0, 0).in_bytes, 100u);
  EXPECT_EQ(f.raw(2, 0).in_bytes, 50u);
  EXPECT_EQ(f.raw(1, 0).in_bytes, 0u);
  // Aggregation sums across CPUs.
  EXPECT_EQ(f.read_aggregated()[0].in_bytes, 150);
}

TEST(TcFilter, CpuIndexWraps) {
  TcFilter f(small());
  f.enable(sim::kMillisecond);
  f.process(6, seg(1, 10), true, 0);  // 6 % 4 == 2
  EXPECT_EQ(f.raw(2, 0).in_bytes, 10u);
}

TEST(TcFilter, FlowCountingAcrossCpus) {
  TcFilter f(small());
  f.enable(sim::kMillisecond);
  // Three distinct flows on three CPUs, same bucket.
  f.process(0, seg(11, 10), true, 0);
  f.process(1, seg(22, 10), true, 0);
  f.process(2, seg(33, 10), true, 0);
  EXPECT_NEAR(f.read_aggregated()[0].connections, 3.0, 0.2);
}

TEST(TcFilter, FlowCountingDisabled) {
  auto cfg = small();
  cfg.count_flows = false;
  TcFilter f(cfg);
  f.enable(sim::kMillisecond);
  f.process(0, seg(11, 10), true, 0);
  EXPECT_DOUBLE_EQ(f.read_aggregated()[0].connections, 0.0);
}

TEST(TcFilter, FlowZeroNotSketched) {
  TcFilter f(small());
  f.enable(sim::kMillisecond);
  f.process(0, seg(0, 10), true, 0);  // raw tool traffic has flow id 0
  EXPECT_DOUBLE_EQ(f.read_aggregated()[0].connections, 0.0);
  EXPECT_EQ(f.read_aggregated()[0].in_bytes, 10);
}

TEST(TcFilter, BackwardsClockDropsSample) {
  TcFilter f(small());
  f.enable(sim::kMillisecond);
  f.process(0, seg(1, 10), true, 5 * sim::kMillisecond);
  EXPECT_FALSE(f.process(0, seg(1, 10), true, 4 * sim::kMillisecond));
  EXPECT_TRUE(f.enabled());
}

TEST(TcFilter, MemoryFootprintMatchesPaper) {
  // §4.3: ~3.6MB for counters of each type, 2000 samples, per CPU core.
  TcFilterConfig cfg;
  cfg.num_cpus = 32;
  cfg.num_buckets = 2000;
  TcFilter f(cfg);
  EXPECT_EQ(f.memory_footprint(), 32u * 2000u * sizeof(RawBucket));
  // 32 cores x 2000 buckets x 56B = 3.58 (decimal) MB ~ the paper's 3.6MB.
  EXPECT_NEAR(static_cast<double>(f.memory_footprint()) / 1e6, 3.6, 0.1);
}

TEST(TcFilter, BatchMatchesPerPacketProcessing) {
  // Property: process_batch must be equivalent to the per-packet path, row
  // by row on every CPU.  process_batch prefetches kBatchPrefetchRows
  // rows ahead, so runs shorter than, as long as and longer than that
  // look-ahead are covered, each ending with a batch one bucket past the
  // end that must stop the run and count nothing.
  util::Rng rng(9);
  std::vector<int> lengths;
  for (int n = 1; n <= kBatchPrefetchRows + 1; ++n) lengths.push_back(n);
  lengths.push_back(50);
  for (int cpus = 1; cpus <= 2; ++cpus) {
    for (const int buckets : lengths) {
      SCOPED_TRACE(testing::Message() << cpus << " cpus, " << buckets
                                      << " buckets");
      TcFilterConfig cfg;
      cfg.num_cpus = cpus;
      cfg.num_buckets = buckets;
      TcFilter per_packet(cfg), batched(cfg);
      per_packet.enable(sim::kMillisecond);
      batched.enable(sim::kMillisecond);

      for (int bucket = 0; bucket <= buckets; ++bucket) {
        const sim::SimTime t = bucket * sim::kMillisecond + 10;
        for (int cpu = 0; cpu < cpus; ++cpu) {
          SegmentBatch batch;
          FlowSketch sketch;
          const int packets = 1 + static_cast<int>(rng.uniform_int(8));
          for (int i = 0; i < packets; ++i) {
            const net::FlowId flow = 1 + rng.uniform_int(5);
            const auto bytes =
                static_cast<std::int32_t>(100 + rng.uniform_int(1400));
            const bool retx = rng.bernoulli(0.1);
            const bool ce = rng.bernoulli(0.2);
            const bool ingress = rng.bernoulli(0.8);
            per_packet.process(cpu, seg(flow, bytes, retx, ce), ingress, t);
            if (ingress) {
              batch.in_bytes += bytes;
              if (retx) batch.in_retx_bytes += bytes;
              if (ce) batch.in_ecn_bytes += bytes;
            } else {
              batch.out_bytes += bytes;
              if (retx) batch.out_retx_bytes += bytes;
            }
            sketch.add(flow);
          }
          batch.sketch[0] = sketch.word(0);
          batch.sketch[1] = sketch.word(1);
          EXPECT_EQ(batched.process_batch(cpu, batch, t), bucket < buckets)
              << bucket;
        }
      }
      EXPECT_FALSE(per_packet.enabled());
      EXPECT_FALSE(batched.enabled());

      for (int cpu = 0; cpu < cpus; ++cpu) {
        for (int i = 0; i < buckets; ++i) {
          const RawBucket& a = per_packet.raw(cpu, i);
          const RawBucket& b = batched.raw(cpu, i);
          EXPECT_EQ(a.in_bytes, b.in_bytes) << cpu << " " << i;
          EXPECT_EQ(a.in_retx_bytes, b.in_retx_bytes) << cpu << " " << i;
          EXPECT_EQ(a.in_ecn_bytes, b.in_ecn_bytes) << cpu << " " << i;
          EXPECT_EQ(a.out_bytes, b.out_bytes) << cpu << " " << i;
          EXPECT_EQ(a.out_retx_bytes, b.out_retx_bytes) << cpu << " " << i;
          EXPECT_EQ(a.sketch[0], b.sketch[0]) << cpu << " " << i;
          EXPECT_EQ(a.sketch[1], b.sketch[1]) << cpu << " " << i;
        }
      }
      const auto a = per_packet.read_aggregated();
      const auto b = batched.read_aggregated();
      ASSERT_EQ(a.size(), static_cast<std::size_t>(buckets));
      ASSERT_EQ(b.size(), a.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].in_bytes, b[i].in_bytes) << i;
        EXPECT_EQ(a[i].in_retx_bytes, b[i].in_retx_bytes) << i;
        EXPECT_EQ(a[i].in_ecn_bytes, b[i].in_ecn_bytes) << i;
        EXPECT_EQ(a[i].out_bytes, b[i].out_bytes) << i;
        EXPECT_EQ(a[i].out_retx_bytes, b[i].out_retx_bytes) << i;
        EXPECT_DOUBLE_EQ(a[i].connections, b[i].connections) << i;
      }
    }
  }
}

TEST(TcFilter, BatchAutoStops) {
  TcFilter f(small());
  f.enable(sim::kMillisecond);
  SegmentBatch b;
  b.in_bytes = 10;
  f.process_batch(0, b, 0);
  EXPECT_FALSE(f.process_batch(0, b, 10 * sim::kMillisecond));
  EXPECT_FALSE(f.enabled());
}

class IntervalTest : public ::testing::TestWithParam<sim::SimDuration> {};

TEST_P(IntervalTest, BucketsScaleWithInterval) {
  // The paper runs 100µs, 1ms and 10ms intervals with 2000 fixed buckets.
  const sim::SimDuration interval = GetParam();
  TcFilterConfig cfg;
  cfg.num_cpus = 1;
  cfg.num_buckets = 2000;
  TcFilter f(cfg);
  f.enable(interval);
  f.process(0, seg(1, 1), true, 0);
  // A packet at exactly 1999 intervals is in the last bucket...
  EXPECT_TRUE(f.process(0, seg(1, 2), true, 1999 * interval));
  // ...and one interval later the run self-terminates.
  EXPECT_FALSE(f.process(0, seg(1, 4), true, 2000 * interval));
  EXPECT_FALSE(f.enabled());
  const auto agg = f.read_aggregated();
  EXPECT_EQ(agg[1999].in_bytes, 2);
}

INSTANTIATE_TEST_SUITE_P(PaperIntervals, IntervalTest,
                         ::testing::Values(100 * sim::kMicrosecond,
                                           sim::kMillisecond,
                                           10 * sim::kMillisecond));

}  // namespace
}  // namespace msamp::core
