// The wire unit of the packet-level simulator.
//
// A Packet models either a TCP data segment or a pure ACK.  Header fields
// are reduced to exactly what the paper's measurement pipeline needs:
// ECN ECT/CE bits, the Meta-style "retransmitted" header bit (§4.2), and
// enough TCP state (seq/ack) for the simplified transport.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace msamp::net {

/// Host identifiers are dense indices assigned by the topology.
using HostId = std::uint32_t;

/// Flow (connection) identifiers, unique within a simulation.
using FlowId = std::uint64_t;

/// Sentinel for "no host".
inline constexpr HostId kNoHost = 0xffffffffu;

/// Destination id at or above this value is a rack-local multicast group;
/// the ToR replicates such packets to all subscribed downlink ports.
inline constexpr HostId kMulticastBase = 0xff000000u;

/// A simulated packet.  Copied by value along the path, and captured by
/// value in link and switch events; 56 bytes.
struct Packet {
  FlowId flow = 0;          ///< connection id (0 = none, e.g. raw tools)
  HostId src = kNoHost;     ///< sending host
  HostId dst = kNoHost;     ///< receiving host or multicast group
  std::int32_t bytes = 0;   ///< wire size of this packet (payload + header)
  std::int64_t seq = 0;     ///< first payload byte offset (data segments)
  std::int64_t ack = 0;     ///< cumulative ack (ACK packets)
  sim::SimTime sent_at = 0; ///< stamped by the sender, for RTT estimation

  bool is_ack = false;      ///< pure ACK (not counted as data volume)
  bool ect = false;         ///< ECN-capable transport (DCTCP sets this)
  bool ce = false;          ///< congestion experienced (set by the switch)
  bool ece = false;         ///< ACK echoes a CE mark back to the sender
  bool retx_mark = false;   ///< Meta "this flow just retransmitted" bit
  bool payload_retx = false;///< this data segment is itself a retransmission
};

/// True if the destination denotes a multicast group.
constexpr bool is_multicast(HostId dst) noexcept {
  return dst >= kMulticastBase && dst != kNoHost;
}

}  // namespace msamp::net
