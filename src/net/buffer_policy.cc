#include "net/buffer_policy.h"

#include <algorithm>
#include <vector>

namespace msamp::net {

namespace {

/// Choudhury-Hahne reference implementation: the queue's shared usage may
/// not exceed alpha * (free shared space), evaluated at arrival.
class DynamicThresholdPolicy : public BufferSharingPolicy {
 public:
  explicit DynamicThresholdPolicy(double alpha) : alpha_(alpha) {}

  std::string_view name() const noexcept override { return "dt"; }

  std::int64_t policy_limit(int /*queue*/,
                            const PolicyQueueState& qs) const override {
    return static_cast<std::int64_t>(alpha_ *
                                     static_cast<double>(qs.free_shared));
  }

 private:
  double alpha_;
};

/// Each queue owns an equal fixed slice of its quadrant's shared pool.
class StaticPartitionPolicy : public BufferSharingPolicy {
 public:
  std::string_view name() const noexcept override { return "static"; }

  std::int64_t policy_limit(int /*queue*/,
                            const PolicyQueueState& qs) const override {
    return qs.shared_capacity / std::max(qs.queues_in_quadrant, 1);
  }
};

/// Any queue may take everything not used by OTHER queues (its own usage
/// does not count against it) — no isolation at all.
class CompleteSharingPolicy : public BufferSharingPolicy {
 public:
  std::string_view name() const noexcept override { return "complete"; }

  std::int64_t policy_limit(int /*queue*/,
                            const PolicyQueueState& qs) const override {
    return qs.free_shared + qs.shared_len;
  }
};

/// Enhanced DT (Shan et al.): a queue whose arrivals just jumped (a fresh
/// microburst) temporarily gets a boosted alpha so the burst can be
/// absorbed instead of dropped.  Freshness compares this instant's
/// arrivals to the last observation delivered via on_enqueue(); with an
/// unmodeled drain rate (kInfiniteDrain, the packet MMU) the rate test is
/// unreachable and the policy degenerates to plain DT.
class BurstAbsorbDtPolicy : public BufferSharingPolicy {
 public:
  BurstAbsorbDtPolicy(double alpha, double boost, int num_queues)
      : alpha_(alpha),
        boost_(boost),
        last_arrivals_(static_cast<std::size_t>(num_queues), 0) {}

  std::string_view name() const noexcept override { return "burst-absorb"; }

  std::int64_t policy_limit(int queue,
                            const PolicyQueueState& qs) const override {
    const bool fresh_burst =
        qs.arriving_bytes >
            2 * last_arrivals_[static_cast<std::size_t>(queue)] &&
        qs.arriving_bytes > qs.drain_bytes_per_ms / 2;
    const double a = fresh_burst ? alpha_ * boost_ : alpha_;
    return static_cast<std::int64_t>(a * static_cast<double>(qs.free_shared));
  }

  void on_enqueue(int queue, std::int64_t bytes) override {
    last_arrivals_[static_cast<std::size_t>(queue)] = bytes;
  }

 private:
  double alpha_;
  double boost_;
  std::vector<std::int64_t> last_arrivals_;
};

/// BShare-style delay-driven sharing: the effective alpha is scaled by
/// target_delay / observed_delay (clamped to [min_gain, max_gain]), where
/// the observed queueing delay is queue_len over the configured drain
/// rate.  An empty queue gets the full max_gain headroom; a queue already
/// holding more than `gain_at(delay) = target/delay` worth of latency is
/// squeezed below plain DT, bounding its delay near the target.
class DelayDrivenPolicy : public BufferSharingPolicy {
 public:
  DelayDrivenPolicy(double alpha, const DelayDrivenConfig& cfg)
      : alpha_(alpha),
        cfg_(cfg),
        drain_per_ms_(std::max(cfg.drain_gbps * 1e9 / 8.0 / 1000.0, 1.0)) {}

  std::string_view name() const noexcept override { return "delay"; }

  std::int64_t policy_limit(int /*queue*/,
                            const PolicyQueueState& qs) const override {
    const double delay_ms =
        static_cast<double>(qs.queue_len) / drain_per_ms_;
    const double gain =
        delay_ms > 0.0
            ? std::clamp(cfg_.target_delay_ms / delay_ms, cfg_.min_gain,
                         cfg_.max_gain)
            : cfg_.max_gain;
    return static_cast<std::int64_t>(alpha_ * gain *
                                     static_cast<double>(qs.free_shared));
  }

 private:
  double alpha_;
  DelayDrivenConfig cfg_;
  double drain_per_ms_;
};

}  // namespace

std::unique_ptr<BufferSharingPolicy> make_policy(
    const SharedBufferConfig& config, int num_queues) {
  switch (config.policy) {
    case BufferPolicy::kStaticPartition:
      return std::make_unique<StaticPartitionPolicy>();
    case BufferPolicy::kCompleteSharing:
      return std::make_unique<CompleteSharingPolicy>();
    case BufferPolicy::kBurstAbsorbDt:
      return std::make_unique<BurstAbsorbDtPolicy>(
          config.alpha, config.burst_alpha_boost, num_queues);
    case BufferPolicy::kDelayDriven:
      return std::make_unique<DelayDrivenPolicy>(config.alpha, config.delay);
    case BufferPolicy::kDynamicThreshold:
      break;
  }
  return std::make_unique<DynamicThresholdPolicy>(config.alpha);
}

std::string_view policy_name(BufferPolicy policy) noexcept {
  switch (policy) {
    case BufferPolicy::kDynamicThreshold: return "dt";
    case BufferPolicy::kStaticPartition: return "static";
    case BufferPolicy::kCompleteSharing: return "complete";
    case BufferPolicy::kBurstAbsorbDt: return "burst-absorb";
    case BufferPolicy::kDelayDriven: return "delay";
  }
  return "dt";
}

}  // namespace msamp::net
