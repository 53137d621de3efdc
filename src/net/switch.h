// Top-of-rack switch: downlink ports (one egress queue per server, backed by
// the shared-memory MMU) plus an idealized uplink side.  Congestion in the
// studied fleet happens almost exclusively on the server downlinks (§3), so
// the uplink direction forwards with a fixed fabric delay and no loss.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/packet.h"
#include "net/packet_fifo.h"
#include "net/shared_buffer.h"
#include "sim/simulator.h"

namespace msamp::net {

/// ToR parameters; defaults mirror §3 (12.5G server links, 16MB buffer,
/// alpha = 1, 120KB ECN threshold).
struct SwitchConfig {
  SharedBufferConfig buffer;
  double downlink_gbps = 12.5;
  sim::SimDuration downlink_propagation = 2 * sim::kMicrosecond;
  /// One-way delay from the ToR through the fabric to a remote host.
  sim::SimDuration fabric_delay = 18 * sim::kMicrosecond;
};

/// The switch.  Ports are dense [0, num_ports); each port is one server's
/// egress queue in the MMU.
class Switch {
 public:
  using Deliver = std::function<void(const Packet&)>;

  Switch(sim::Simulator& simulator, const SwitchConfig& config, int num_ports);

  /// Binds `host` to downlink `port`; `deliver` receives packets that exit
  /// the port (i.e. arrive at the server NIC).
  void attach_port(int port, HostId host, Deliver deliver);

  /// Sets the sink for packets leaving through the uplinks (destined to
  /// hosts outside the rack).
  void set_uplink(Deliver deliver) { uplink_ = std::move(deliver); }

  /// A packet arrives at the switch (from a server link or from the fabric).
  void receive(const Packet& packet);

  /// Subscribes a downlink port to a rack-local multicast group.
  void subscribe_multicast(HostId group, int port);

  /// MMU access for instrumentation and tests.
  SharedBuffer& mmu() noexcept { return mmu_; }
  const SharedBuffer& mmu() const noexcept { return mmu_; }

  const SwitchConfig& config() const noexcept { return config_; }

 private:
  void enqueue_downlink(int port, Packet packet);
  void drain_port(int port);

  struct Port {
    HostId host = kNoHost;
    Deliver deliver;
    PacketFifo fifo;
    bool transmitting = false;
  };

  sim::Simulator& simulator_;
  SwitchConfig config_;
  SharedBuffer mmu_;
  std::vector<Port> ports_;
  std::unordered_map<HostId, int> host_to_port_;
  std::unordered_map<HostId, std::vector<int>> multicast_groups_;
  Deliver uplink_;
};

}  // namespace msamp::net
