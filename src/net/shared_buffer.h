// Shared-memory MMU with pluggable buffer sharing and static ECN marking,
// modeled on the ToR described in §2.1/§3 of the paper:
//
//   * total buffer B split into quadrants (16MB -> 4 x 4MB on the studied
//     ASIC); an egress queue maps to exactly one quadrant;
//   * per-queue small dedicated reserve; the remainder of each quadrant
//     (~3.6MB) is shared across its queues;
//   * a packet is admitted iff the queue's shared usage stays within the
//     configured BufferSharingPolicy's limit — under the deployed Dynamic
//     Threshold policy, the Choudhury-Hahne limit
//     T(t) = alpha * (B_shared - Q_shared(t));
//   * packets are CE-marked when the queue length at enqueue is at or above
//     a static ECN threshold (120KB in the Meta fleet).
//
// The same arithmetic (admission + fixed point T = aB/(1+aS)) is reused by
// the millisecond-granularity fluid simulator in src/fleet.  The policy
// catalogue and its extension contract live in net/buffer_policy.h and
// docs/POLICIES.md.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/buffer_policy.h"

namespace msamp::net {

/// Per-queue counters exported by the MMU (the "switch counters" the paper
/// reads at 1-minute granularity for Figure 17).
struct QueueCounters {
  std::int64_t enqueued_bytes = 0;
  std::int64_t dropped_bytes = 0;   ///< congestion discards, bytes
  std::int64_t dropped_packets = 0; ///< congestion discards, packets
  std::int64_t ce_marked_bytes = 0;
};

/// The MMU proper.  Queue ids are dense [0, num_queues).  Owns the policy
/// object built for its config, so the class is move-only.
class SharedBuffer {
 public:
  SharedBuffer(const SharedBufferConfig& config, int num_queues);

  SharedBuffer(SharedBuffer&&) noexcept = default;
  SharedBuffer& operator=(SharedBuffer&&) noexcept = default;

  /// Attempts to admit `bytes` into `queue`.  On success the queue length
  /// grows and `*mark_ce` reports whether the packet must carry CE.
  /// On failure (policy limit exceeded) the drop counters grow instead.
  bool admit(int queue, std::int64_t bytes, bool ect, bool* mark_ce);

  /// Removes `bytes` from `queue` (packet transmitted out the port).
  void release(int queue, std::int64_t bytes);

  /// Current policy limit T(t) for `queue`, i.e. the maximum shared usage
  /// the queue may reach right now (under DT this is the dynamic
  /// threshold, hence the name).
  std::int64_t dynamic_limit(int queue) const;

  /// Current length of `queue` in bytes.
  std::int64_t queue_len(int queue) const { return queues_.at(queue).len; }

  /// Total occupancy of the shared portion of `queue`'s quadrant.
  std::int64_t shared_occupancy(int queue) const;

  /// Number of queues with nonzero length in `queue`'s quadrant.
  int active_queues_in_quadrant(int queue) const;

  /// Per-queue counters (never reset by the MMU itself).
  const QueueCounters& counters(int queue) const {
    return queues_.at(queue).counters;
  }

  /// Sum of discard bytes across all queues.
  std::int64_t total_dropped_bytes() const;

  int num_queues() const noexcept { return static_cast<int>(queues_.size()); }
  const SharedBufferConfig& config() const noexcept { return config_; }

  /// The sharing discipline in charge of admission limits.
  const BufferSharingPolicy& policy() const noexcept { return *policy_; }

  /// Quadrant a queue maps to (round-robin by queue id, as an egress queue
  /// maps to a quadrant as a function of the port).
  int quadrant_of(int queue) const {
    return queue % config_.quadrants;
  }

  /// Shared pool of one quadrant: the quadrant's bytes less a reserve for
  /// each queue of the fullest quadrant (queues map round-robin, so that
  /// is ceil(num_queues / quadrants)), floored at 0.  The fluid rack
  /// carves its pool out the same way.
  static std::int64_t shared_capacity_per_quadrant(
      const SharedBufferConfig& config, int num_queues);

  /// Closed-form DT fixed point: the share of the *shared* buffer one of S
  /// saturated queues converges to, T = alpha*B / (1 + alpha*S).  Exposed
  /// for Figure 1 and cross-checked against the MMU in tests.
  static double fixed_point_share(double alpha, int active_queues);

 private:
  struct Queue {
    std::int64_t len = 0;  ///< total bytes queued (reserve + shared)
    QueueCounters counters;
  };

  /// The policy's current per-queue shared-usage cap when `arriving`
  /// bytes ask for admission.
  std::int64_t policy_limit(int queue, std::int64_t arriving) const;

  /// Bytes of `len` that count against the shared pool.
  std::int64_t shared_part(std::int64_t len) const {
    const std::int64_t over = len - config_.reserve_per_queue;
    return over > 0 ? over : 0;
  }

  SharedBufferConfig config_;
  std::int64_t shared_capacity_per_quadrant_;
  std::unique_ptr<BufferSharingPolicy> policy_;
  std::vector<Queue> queues_;
  std::vector<std::int64_t> shared_used_;  ///< per quadrant
  std::vector<int> queues_per_quadrant_;
};

}  // namespace msamp::net
