#include "net/shared_buffer.h"

#include <algorithm>
#include <cassert>

namespace msamp::net {

SharedBuffer::SharedBuffer(const SharedBufferConfig& config, int num_queues)
    : config_(config),
      shared_capacity_per_quadrant_(
          shared_capacity_per_quadrant(config, num_queues)),
      policy_(make_policy(config, num_queues)),
      queues_(static_cast<std::size_t>(num_queues)),
      shared_used_(static_cast<std::size_t>(config.quadrants), 0),
      queues_per_quadrant_(static_cast<std::size_t>(config.quadrants), 0) {
  assert(config_.quadrants > 0);
  assert(num_queues > 0);
  for (int i = 0; i < num_queues; ++i) {
    ++queues_per_quadrant_[static_cast<std::size_t>(quadrant_of(i))];
  }
}

std::int64_t SharedBuffer::shared_capacity_per_quadrant(
    const SharedBufferConfig& config, int num_queues) {
  // Reserves are carved out of each quadrant; what remains is the shared
  // pool.  With the paper's numbers (4MB quadrant, ~24 queues, 16KB
  // reserve) this yields the ~3.6MB shared pool described in §3.
  const int max_queues_in_quadrant =
      num_queues / config.quadrants + (num_queues % config.quadrants != 0);
  return std::max<std::int64_t>(
      0, config.total_bytes / config.quadrants -
             max_queues_in_quadrant * config.reserve_per_queue);
}

std::int64_t SharedBuffer::policy_limit(int queue,
                                        std::int64_t arriving) const {
  const int quad = quadrant_of(queue);
  PolicyQueueState qs;
  qs.queue_len = queues_[static_cast<std::size_t>(queue)].len;
  qs.shared_len = shared_part(qs.queue_len);
  qs.free_shared = shared_capacity_per_quadrant_ -
                   shared_used_[static_cast<std::size_t>(quad)];
  qs.shared_capacity = shared_capacity_per_quadrant_;
  qs.queues_in_quadrant = queues_per_quadrant_[static_cast<std::size_t>(quad)];
  qs.arriving_bytes = arriving;
  // The packet MMU does not model egress drain, so rate-based burst
  // detection is neutralized (kBurstAbsorbDt behaves as plain DT here; the
  // fluid simulator supplies the real drain rate — see fleet/fluid_rack.cc).
  qs.drain_bytes_per_ms = kInfiniteDrain;
  return policy_->policy_limit(queue, qs);
}

bool SharedBuffer::admit(int queue, std::int64_t bytes, bool ect,
                         bool* mark_ce) {
  Queue& q = queues_.at(static_cast<std::size_t>(queue));
  const int quad = quadrant_of(queue);
  const std::int64_t before = shared_part(q.len);
  const std::int64_t after = shared_part(q.len + bytes);
  const std::int64_t delta = after - before;

  const std::int64_t limit = policy_limit(queue, bytes);
  if (delta > 0 && after > limit) {
    q.counters.dropped_bytes += bytes;
    q.counters.dropped_packets += 1;
    if (mark_ce != nullptr) *mark_ce = false;
    return false;
  }

  // Static ECN threshold, evaluated on the pre-enqueue queue length as in
  // the studied ASIC.
  const bool ce = ect && q.len >= config_.ecn_threshold;
  q.len += bytes;
  shared_used_[static_cast<std::size_t>(quad)] += delta;
  q.counters.enqueued_bytes += bytes;
  if (ce) q.counters.ce_marked_bytes += bytes;
  if (mark_ce != nullptr) *mark_ce = ce;
  policy_->on_enqueue(queue, bytes);
  return true;
}

void SharedBuffer::release(int queue, std::int64_t bytes) {
  Queue& q = queues_.at(static_cast<std::size_t>(queue));
  assert(q.len >= bytes);
  const int quad = quadrant_of(queue);
  const std::int64_t before = shared_part(q.len);
  q.len -= bytes;
  const std::int64_t after = shared_part(q.len);
  shared_used_[static_cast<std::size_t>(quad)] -= before - after;
  policy_->on_dequeue(queue, bytes);
}

std::int64_t SharedBuffer::dynamic_limit(int queue) const {
  return policy_limit(queue, 0);
}

std::int64_t SharedBuffer::shared_occupancy(int queue) const {
  return shared_used_.at(static_cast<std::size_t>(quadrant_of(queue)));
}

int SharedBuffer::active_queues_in_quadrant(int queue) const {
  const int quad = quadrant_of(queue);
  int active = 0;
  for (int i = quad; i < num_queues(); i += config_.quadrants) {
    if (queues_[static_cast<std::size_t>(i)].len > 0) ++active;
  }
  return active;
}

std::int64_t SharedBuffer::total_dropped_bytes() const {
  std::int64_t total = 0;
  for (const auto& q : queues_) total += q.counters.dropped_bytes;
  return total;
}

double SharedBuffer::fixed_point_share(double alpha, int active_queues) {
  // T = alpha*(B - S*T)  =>  T = alpha*B / (1 + alpha*S); expressed as the
  // fraction of the shared buffer a single saturated queue converges to.
  return alpha / (1.0 + alpha * static_cast<double>(active_queues));
}

}  // namespace msamp::net
