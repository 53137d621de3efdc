#include "net/link.h"

namespace msamp::net {

Link::Link(sim::Simulator& simulator, const LinkConfig& config, Deliver deliver)
    : simulator_(simulator), config_(config), deliver_(std::move(deliver)) {}

bool Link::send(const Packet& packet) {
  offered_bytes_ += packet.bytes;
  if (config_.drop_every_n != 0 && ++offered_packets_ % config_.drop_every_n == 0) {
    ++drops_;
    return false;  // injected fault
  }
  if (backlog_ + packet.bytes > config_.queue_limit_bytes) {
    ++drops_;
    return false;
  }
  queue_.push_back(packet);
  backlog_ += packet.bytes;
  if (!transmitting_) start_transmission();
  return true;
}

void Link::start_transmission() {
  if (queue_.empty()) {
    transmitting_ = false;
    return;
  }
  transmitting_ = true;
  const Packet pkt = queue_.pop_front();
  const sim::SimDuration ser = sim::serialize_time(pkt.bytes, config_.gbps);
  // After serialization the wire is free for the next packet; the packet
  // itself arrives one propagation delay later.
  simulator_.schedule_in(ser, [this, pkt] {
    backlog_ -= pkt.bytes;
    simulator_.schedule_in(config_.propagation,
                           [this, pkt] { deliver_(pkt); });
    start_transmission();
  });
}

}  // namespace msamp::net
