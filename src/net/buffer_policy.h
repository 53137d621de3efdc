// Buffer-sharing policy layer for the shared-memory MMU.
//
// The studied fleet runs Dynamic Threshold (Choudhury-Hahne) with alpha=1;
// everything the paper measures (Figs 9, 16-19) is conditioned on that one
// choice.  `BufferSharingPolicy` generalizes the admission limit behind a
// small virtual interface so the same simulators (packet-level
// net::SharedBuffer and the fluid fleet::FluidRack) can be re-run under
// alternative sharing disciplines and compared via `msampctl sweep`.
//
// Determinism contract for implementations (see docs/POLICIES.md):
//   * no wall clock, no global mutable state, no unordered iteration —
//     a policy's output may depend only on its config and the admission
//     history delivered through on_enqueue()/on_dequeue();
//   * every tunable must live in SharedBufferConfig (or a struct nested in
//     it), travel through the wire format (src/fleet/wire.cc) and be hashed
//     by FleetConfig::fingerprint() — the `fingerprint-coverage` lint rule
//     enforces the hashing once the struct is registered in
//     tools/lint/main.cc.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

namespace msamp::net {

/// Buffer-sharing policy selector.  The studied fleet runs Dynamic
/// Threshold (Choudhury-Hahne); the alternatives implement the §10
/// related-work algorithms:
///   * kStaticPartition — each queue owns an equal fixed slice;
///   * kCompleteSharing — any queue may take all free space (no isolation);
///   * kBurstAbsorbDt   — DT, but a queue whose arrival rate just jumped
///     (a fresh burst) is temporarily allowed a larger alpha, per Shan et
///     al.'s enhanced dynamic threshold;
///   * kDelayDriven     — BShare-style: the alpha seen by a queue shrinks
///     as its queueing delay grows past a target, bounding latency while
///     letting short bursts take headroom.
enum class BufferPolicy : std::uint8_t {
  kDynamicThreshold = 0,
  kStaticPartition,
  kCompleteSharing,
  kBurstAbsorbDt,
  kDelayDriven,
};
inline constexpr int kNumBufferPolicies = 5;

/// Parameters of the kDelayDriven control law.
struct DelayDrivenConfig {
  double target_delay_ms = 0.5;  ///< queueing delay the controller holds
  double min_gain = 0.125;       ///< floor on the alpha multiplier
  double max_gain = 8.0;         ///< ceiling on the alpha multiplier
  double drain_gbps = 12.5;      ///< egress rate used to turn bytes into ms
};

/// Configuration of the MMU; defaults reproduce the paper's ToR.
struct SharedBufferConfig {
  std::int64_t total_bytes = 16 << 20;    ///< 16 MB packet buffer
  int quadrants = 4;                      ///< 4 x 4MB quadrants
  std::int64_t reserve_per_queue = 16 << 10;  ///< dedicated bytes per queue
  double alpha = 1.0;                     ///< DT alpha (Meta default)
  std::int64_t ecn_threshold = 120 << 10; ///< static CE-mark threshold
  BufferPolicy policy = BufferPolicy::kDynamicThreshold;
  /// kBurstAbsorbDt: alpha multiplier granted to freshly bursting queues.
  double burst_alpha_boost = 4.0;
  /// kDelayDriven control-law parameters.
  DelayDrivenConfig delay;
};

/// Snapshot of one queue's view of the buffer, assembled by the caller at
/// the instant an admission decision is needed.  `free_shared` is the
/// caller's notion of remaining shared space (the packet MMU passes it
/// unclamped, the fluid model clamps at zero) so the policies reproduce
/// each simulator's seed arithmetic bit for bit.
struct PolicyQueueState {
  std::int64_t queue_len = 0;      ///< total bytes queued (reserve + shared)
  std::int64_t shared_len = 0;     ///< bytes of queue_len in the shared pool
  std::int64_t free_shared = 0;    ///< shared capacity minus occupancy
  std::int64_t shared_capacity = 0;  ///< shared pool of the queue's quadrant
  int queues_in_quadrant = 0;      ///< queues mapped to this quadrant
  std::int64_t arriving_bytes = 0; ///< bytes asking admission right now
  /// Egress drain rate; kInfiniteDrain when the caller does not model
  /// drain (the packet MMU), which neutralizes rate-based burst detection.
  std::int64_t drain_bytes_per_ms = 0;
};

/// Drain sentinel for callers that do not model egress rate.
inline constexpr std::int64_t kInfiniteDrain =
    std::int64_t{0x7fffffffffffffff};

/// The sharing discipline proper.  One instance serves all queues of one
/// MMU (or one fluid rack); implementations may keep per-queue state fed
/// by the hooks below, and must follow the determinism contract above.
class BufferSharingPolicy {
 public:
  virtual ~BufferSharingPolicy() = default;

  /// Short stable identifier ("dt", "static", ...), used in tables, sweep
  /// cell names and CLI flags.
  virtual std::string_view name() const noexcept = 0;

  /// Maximum *shared* usage `queue` may reach right now, excluding its
  /// dedicated reserve (the caller adds the reserve).
  virtual std::int64_t policy_limit(int queue,
                                    const PolicyQueueState& qs) const = 0;

  /// Arrival observation: the packet MMU reports each admitted packet, the
  /// fluid model reports each step's offered demand.  Called after the
  /// admission decision that used policy_limit().
  virtual void on_enqueue(int queue, std::int64_t bytes) {
    (void)queue;
    (void)bytes;
  }

  /// Departure observation (packet transmitted / step drained).
  virtual void on_dequeue(int queue, std::int64_t bytes) {
    (void)queue;
    (void)bytes;
  }
};

/// Builds the policy object selected by `config.policy` for an MMU with
/// `num_queues` queues.  Deterministic: equal configs build policies with
/// identical behavior.
std::unique_ptr<BufferSharingPolicy> make_policy(
    const SharedBufferConfig& config, int num_queues);

/// Stable short name of a policy ("dt", "static", "complete",
/// "burst-absorb", "delay"); msampctl's --policy and --policies accept
/// the names of the first kNumBufferPolicies values.
std::string_view policy_name(BufferPolicy policy) noexcept;

}  // namespace msamp::net
