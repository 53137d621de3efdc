// A point-to-point link with serialization delay, propagation delay, and a
// bounded FIFO egress queue.  Used for host NIC -> ToR paths (server links)
// and for remote sender uplinks in the rack simulator.
#pragma once

#include <cstdint>
#include <functional>

#include "net/packet.h"
#include "net/packet_fifo.h"
#include "sim/simulator.h"

namespace msamp::net {

/// Link parameters.
struct LinkConfig {
  double gbps = 12.5;                       ///< line rate
  sim::SimDuration propagation = 5 * sim::kMicrosecond;
  std::int64_t queue_limit_bytes = 2 << 20; ///< egress FIFO cap (drop-tail)
  /// Fault injection: deterministically drop every Nth packet offered
  /// (0 = disabled).  Used by tests to exercise transport recovery —
  /// including loss on the ACK path — without relying on buffer overflow.
  std::uint32_t drop_every_n = 0;
};

/// Simplex link; create two for a duplex path.
class Link {
 public:
  using Deliver = std::function<void(const Packet&)>;

  Link(sim::Simulator& simulator, const LinkConfig& config, Deliver deliver);

  /// Enqueues a packet for transmission; drops (and counts) if the egress
  /// FIFO is full.  Returns false on drop.
  bool send(const Packet& packet);

  /// Bytes currently queued (not yet fully serialized).
  std::int64_t backlog() const noexcept { return backlog_; }

  /// Packets dropped at the egress FIFO.
  std::uint64_t drops() const noexcept { return drops_; }

  /// Total bytes handed to `send` (including dropped ones).
  std::int64_t offered_bytes() const noexcept { return offered_bytes_; }

  const LinkConfig& config() const noexcept { return config_; }

 private:
  void start_transmission();

  sim::Simulator& simulator_;
  LinkConfig config_;
  Deliver deliver_;
  PacketFifo queue_;
  bool transmitting_ = false;
  std::int64_t backlog_ = 0;
  std::int64_t offered_bytes_ = 0;
  std::uint64_t offered_packets_ = 0;
  std::uint64_t drops_ = 0;
};

}  // namespace msamp::net
