// The BufferSharingPolicy layer: factory/name round-trips, bit-exact
// parity of each policy's limit arithmetic with the pre-interface enum
// switch, the kDelayDriven control law, wire round-trip and fingerprint
// coverage of the policy parameters, and sweep-grid determinism.
#include "net/buffer_policy.h"

#include <cstdlib>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/sweep.h"
#include "fleet/fleet_runner.h"
#include "fleet/wire.h"

namespace msamp::net {
namespace {

TEST(BufferPolicyFactory, BuildsTheSelectedPolicy) {
  // The names are distinct, so a name read back by msampctl's --policy
  // (an index into these names) is the policy it names.
  SharedBufferConfig cfg;
  std::set<std::string_view> names;
  for (int k = 0; k < kNumBufferPolicies; ++k) {
    cfg.policy = static_cast<BufferPolicy>(k);
    const auto policy = make_policy(cfg, 8);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), policy_name(cfg.policy));
    EXPECT_TRUE(names.insert(policy_name(cfg.policy)).second);
  }
}

/// One mid-pressure queue state shared by the parity checks below.
PolicyQueueState pressured_state() {
  PolicyQueueState qs;
  qs.shared_capacity = (4 << 20) - 24 * (16 << 10);
  qs.free_shared = qs.shared_capacity / 3;
  qs.queue_len = 300 << 10;
  qs.shared_len = qs.queue_len - (16 << 10);
  qs.queues_in_quadrant = 24;
  qs.arriving_bytes = 9000;
  qs.drain_bytes_per_ms = 1562500;  // 12.5 Gbps
  return qs;
}

// Each policy must reproduce the exact arithmetic of the pre-interface
// enum switch (net/shared_buffer.cc and fleet/fluid_rack.cc before the
// refactor) — the DT-alpha=1 dataset parity guarantee rests on this.
TEST(BufferPolicyParity, DynamicThresholdMatchesSeedFormula) {
  SharedBufferConfig cfg;
  cfg.alpha = 0.7;
  cfg.policy = BufferPolicy::kDynamicThreshold;
  const auto policy = make_policy(cfg, 24);
  const PolicyQueueState qs = pressured_state();
  EXPECT_EQ(policy->policy_limit(3, qs),
            static_cast<std::int64_t>(
                cfg.alpha * static_cast<double>(qs.free_shared)));
}

TEST(BufferPolicyParity, StaticPartitionMatchesSeedFormula) {
  SharedBufferConfig cfg;
  cfg.policy = BufferPolicy::kStaticPartition;
  const auto policy = make_policy(cfg, 24);
  const PolicyQueueState qs = pressured_state();
  EXPECT_EQ(policy->policy_limit(3, qs), qs.shared_capacity / 24);
  PolicyQueueState degenerate = qs;
  degenerate.queues_in_quadrant = 0;
  EXPECT_EQ(policy->policy_limit(3, degenerate), qs.shared_capacity);
}

TEST(BufferPolicyParity, CompleteSharingMatchesSeedFormula) {
  SharedBufferConfig cfg;
  cfg.policy = BufferPolicy::kCompleteSharing;
  const auto policy = make_policy(cfg, 24);
  const PolicyQueueState qs = pressured_state();
  EXPECT_EQ(policy->policy_limit(3, qs), qs.free_shared + qs.shared_len);
}

TEST(BufferPolicyParity, BurstAbsorbBoostsOnlyFreshFastBursts) {
  SharedBufferConfig cfg;
  cfg.policy = BufferPolicy::kBurstAbsorbDt;
  cfg.alpha = 1.0;
  cfg.burst_alpha_boost = 4.0;
  const auto policy = make_policy(cfg, 24);
  PolicyQueueState qs = pressured_state();
  const auto dt =
      static_cast<std::int64_t>(static_cast<double>(qs.free_shared));
  const auto boosted =
      static_cast<std::int64_t>(4.0 * static_cast<double>(qs.free_shared));

  // No arrival history yet: anything above drain/2 is a fresh burst.
  qs.arriving_bytes = qs.drain_bytes_per_ms;
  EXPECT_EQ(policy->policy_limit(5, qs), boosted);

  // Same arrival rate again: no longer fresh (not > 2x previous).
  policy->on_enqueue(5, qs.arriving_bytes);
  EXPECT_EQ(policy->policy_limit(5, qs), dt);

  // Rate jumps past 2x the last observation: fresh again.
  qs.arriving_bytes = qs.drain_bytes_per_ms * 3;
  EXPECT_EQ(policy->policy_limit(5, qs), boosted);

  // Fast but below drain/2: never counts as a burst.
  policy->on_enqueue(5, 0);
  qs.arriving_bytes = qs.drain_bytes_per_ms / 2;
  EXPECT_EQ(policy->policy_limit(5, qs), dt);

  // Unmodeled drain (the packet MMU): the rate test is unreachable, so
  // the policy degenerates to plain DT — the seed packet-level behavior.
  qs.drain_bytes_per_ms = kInfiniteDrain;
  qs.arriving_bytes = 1 << 30;
  EXPECT_EQ(policy->policy_limit(5, qs), dt);

  // Per-queue history: queue 5's observations must not leak to queue 6.
  qs.drain_bytes_per_ms = pressured_state().drain_bytes_per_ms;
  qs.arriving_bytes = qs.drain_bytes_per_ms;
  EXPECT_EQ(policy->policy_limit(6, qs), boosted);
}

TEST(BufferPolicyDelayDriven, GainShrinksAsQueueGrows) {
  SharedBufferConfig cfg;
  cfg.policy = BufferPolicy::kDelayDriven;
  cfg.alpha = 1.0;
  cfg.delay.target_delay_ms = 0.5;
  cfg.delay.min_gain = 0.125;
  cfg.delay.max_gain = 8.0;
  cfg.delay.drain_gbps = 12.5;
  const auto policy = make_policy(cfg, 8);
  const double drain_per_ms = 12.5 * 1e9 / 8.0 / 1000.0;

  PolicyQueueState qs = pressured_state();
  // Empty queue: full max_gain headroom.
  qs.queue_len = 0;
  EXPECT_EQ(policy->policy_limit(0, qs),
            static_cast<std::int64_t>(
                8.0 * static_cast<double>(qs.free_shared)));

  // Exactly at target delay: gain 1 — plain DT.
  qs.queue_len = static_cast<std::int64_t>(0.5 * drain_per_ms);
  EXPECT_EQ(policy->policy_limit(0, qs),
            static_cast<std::int64_t>(static_cast<double>(qs.free_shared)));

  // Strictly decreasing limit as the backlog (delay) grows, down to the
  // min_gain clamp (hit exactly at delay = target/min_gain = 4ms).
  std::int64_t prev = policy->policy_limit(0, qs);
  for (int mult = 2; mult <= 8; mult *= 2) {
    qs.queue_len = static_cast<std::int64_t>(0.5 * drain_per_ms) * mult;
    const std::int64_t limit = policy->policy_limit(0, qs);
    EXPECT_LT(limit, prev) << "delay x" << mult;
    prev = limit;
  }

  // Far past target: clamped at min_gain, never negative.
  qs.queue_len = static_cast<std::int64_t>(1000.0 * drain_per_ms);
  EXPECT_EQ(policy->policy_limit(0, qs),
            static_cast<std::int64_t>(
                0.125 * static_cast<double>(qs.free_shared)));
}

TEST(BufferPolicyWire, PolicyParamsSurviveConfigRoundTrip) {
  fleet::FleetConfig cfg;
  cfg.buffer.policy = BufferPolicy::kDelayDriven;
  cfg.buffer.alpha = 2.5;
  cfg.buffer.burst_alpha_boost = 7.25;
  cfg.buffer.delay.target_delay_ms = 0.75;
  cfg.buffer.delay.min_gain = 0.0625;
  cfg.buffer.delay.max_gain = 16.0;
  cfg.buffer.delay.drain_gbps = 25.0;

  fleet::wire::Writer w;
  fleet::wire::put_config(w, cfg);
  fleet::wire::Reader r(w.out);
  fleet::FleetConfig back;
  ASSERT_TRUE(fleet::wire::get_config(r, &back));
  EXPECT_EQ(back.buffer.policy, cfg.buffer.policy);
  EXPECT_EQ(back.buffer.alpha, cfg.buffer.alpha);
  EXPECT_EQ(back.buffer.burst_alpha_boost, cfg.buffer.burst_alpha_boost);
  EXPECT_EQ(back.buffer.delay.target_delay_ms,
            cfg.buffer.delay.target_delay_ms);
  EXPECT_EQ(back.buffer.delay.min_gain, cfg.buffer.delay.min_gain);
  EXPECT_EQ(back.buffer.delay.max_gain, cfg.buffer.delay.max_gain);
  EXPECT_EQ(back.buffer.delay.drain_gbps, cfg.buffer.delay.drain_gbps);
  EXPECT_EQ(back.fingerprint(), cfg.fingerprint())
      << "round-tripped config must regenerate the same data";
}

TEST(BufferPolicyWire, OutOfRangePolicyByteRejected) {
  fleet::FleetConfig cfg;
  fleet::wire::Writer w;
  fleet::wire::put_config(w, cfg);
  // The policy byte sits right after the ecn_threshold field; find it by
  // re-serializing with every valid policy and locating the lone diff.
  fleet::FleetConfig other = cfg;
  other.buffer.policy = BufferPolicy::kDelayDriven;
  fleet::wire::Writer w2;
  fleet::wire::put_config(w2, other);
  ASSERT_EQ(w.out.size(), w2.out.size());
  std::size_t policy_at = w.out.size();
  for (std::size_t i = 0; i < w.out.size(); ++i) {
    if (w.out[i] != w2.out[i]) {
      policy_at = i;
      break;
    }
  }
  ASSERT_LT(policy_at, w.out.size());
  w.out[policy_at] =
      static_cast<std::uint8_t>(BufferPolicy::kDelayDriven) + 1;
  fleet::wire::Reader r(w.out);
  fleet::FleetConfig back;
  EXPECT_FALSE(fleet::wire::get_config(r, &back));
}

TEST(BufferPolicyFingerprint, EveryPolicyParamIsScaleRelevant) {
  const fleet::FleetConfig base;
  const std::uint64_t h0 = base.fingerprint();

  fleet::FleetConfig c = base;
  c.buffer.policy = BufferPolicy::kDelayDriven;
  EXPECT_NE(c.fingerprint(), h0);

  c = base;
  c.buffer.alpha = 0.25;
  EXPECT_NE(c.fingerprint(), h0);

  c = base;
  c.buffer.burst_alpha_boost = 2.0;
  EXPECT_NE(c.fingerprint(), h0);

  c = base;
  c.buffer.delay.target_delay_ms = 1.0;
  EXPECT_NE(c.fingerprint(), h0);

  c = base;
  c.buffer.delay.min_gain = 0.5;
  EXPECT_NE(c.fingerprint(), h0);

  c = base;
  c.buffer.delay.max_gain = 2.0;
  EXPECT_NE(c.fingerprint(), h0);

  c = base;
  c.buffer.delay.drain_gbps = 100.0;
  EXPECT_NE(c.fingerprint(), h0);

  c = base;
  c.threads = 13;
  EXPECT_EQ(c.fingerprint(), h0) << "threads never enters the fingerprint";
}

TEST(SweepGrid, ExpandsDeterministicallyWithStableNames) {
  cluster::SweepConfig cfg;
  cfg.policies = {BufferPolicy::kDynamicThreshold,
                  BufferPolicy::kStaticPartition,
                  BufferPolicy::kCompleteSharing,
                  BufferPolicy::kBurstAbsorbDt, BufferPolicy::kDelayDriven};
  cfg.alphas = {0.25, 1.0, 4.0};
  cfg.boosts = {4.0};
  cfg.target_delays_ms = {0.5};

  const auto cells = cluster::expand_grid(cfg);
  ASSERT_EQ(cells.size(), 7u);
  EXPECT_EQ(cells[0].name, "dt-a0.25");
  EXPECT_EQ(cells[1].name, "dt-a1");
  EXPECT_EQ(cells[2].name, "dt-a4");
  EXPECT_EQ(cells[3].name, "static");
  EXPECT_EQ(cells[4].name, "complete");
  EXPECT_EQ(cells[5].name, "burst-absorb-b4");
  EXPECT_EQ(cells[6].name, "delay-d0.5");
  EXPECT_EQ(cells[1].config.buffer.alpha, 1.0);
  EXPECT_EQ(cells[6].config.buffer.delay.target_delay_ms, 0.5);

  // Same config -> same cells with same fingerprints; all fingerprints
  // distinct (each cell is its own dataset identity).
  const auto again = cluster::expand_grid(cfg);
  ASSERT_EQ(again.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(again[i].name, cells[i].name);
    EXPECT_EQ(again[i].config.fingerprint(), cells[i].config.fingerprint());
    for (std::size_t j = i + 1; j < cells.size(); ++j) {
      EXPECT_NE(cells[i].config.fingerprint(), cells[j].config.fingerprint())
          << cells[i].name << " vs " << cells[j].name;
    }
  }
}

/// Keeps MSAMP_THREADS from overriding the per-test thread counts.
class ScopedNoEnvThreads {
 public:
  ScopedNoEnvThreads() {
    const char* v = std::getenv("MSAMP_THREADS");
    if (v != nullptr) saved_ = v;
    unsetenv("MSAMP_THREADS");
  }
  ~ScopedNoEnvThreads() {
    if (!saved_.empty()) setenv("MSAMP_THREADS", saved_.c_str(), 1);
  }

 private:
  std::string saved_;
};

// Dataset-level determinism through the interface: for the deployed
// DT-alpha=1 config and for the new kDelayDriven policy, any thread count
// produces byte-identical serialized datasets.
TEST(BufferPolicyFleet, DatasetBytesInvariantAcrossThreads) {
  ScopedNoEnvThreads no_env;
  fleet::FleetConfig base;
  base.racks_per_region = 3;
  base.servers_per_rack = 24;
  base.hours = 2;
  base.samples_per_run = 100;
  base.warmup_ms = 10;
  for (const BufferPolicy policy :
       {BufferPolicy::kDynamicThreshold, BufferPolicy::kDelayDriven}) {
    fleet::FleetConfig serial = base;
    serial.buffer.policy = policy;
    serial.threads = 1;
    const std::vector<std::uint8_t> blob =
        fleet::run_fleet(serial).serialize();
    fleet::FleetConfig parallel = serial;
    parallel.threads = 3;
    EXPECT_TRUE(fleet::run_fleet(parallel).serialize() == blob)
        << "policy " << policy_name(policy);
  }
}

}  // namespace
}  // namespace msamp::net
