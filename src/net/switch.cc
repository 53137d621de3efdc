#include "net/switch.h"

#include <cassert>

namespace msamp::net {

Switch::Switch(sim::Simulator& simulator, const SwitchConfig& config,
               int num_ports)
    : simulator_(simulator),
      config_(config),
      mmu_(config.buffer, num_ports),
      ports_(static_cast<std::size_t>(num_ports)) {}

void Switch::attach_port(int port, HostId host, Deliver deliver) {
  Port& p = ports_.at(static_cast<std::size_t>(port));
  p.host = host;
  p.deliver = std::move(deliver);
  host_to_port_[host] = port;
}

void Switch::subscribe_multicast(HostId group, int port) {
  assert(is_multicast(group));
  multicast_groups_[group].push_back(port);
}

void Switch::receive(const Packet& packet) {
  if (is_multicast(packet.dst)) {
    // Replicate to every subscriber; each copy is admitted independently
    // against its own egress queue.
    const auto it = multicast_groups_.find(packet.dst);
    if (it == multicast_groups_.end()) return;
    for (int port : it->second) enqueue_downlink(port, packet);
    return;
  }
  const auto it = host_to_port_.find(packet.dst);
  if (it != host_to_port_.end()) {
    enqueue_downlink(it->second, packet);
    return;
  }
  // Not a local server: leaves through the uplinks.  The fabric is modeled
  // as lossless with a fixed one-way delay (§3: congestion lives on the
  // server downlinks; fabric ECN is not deployed).
  if (uplink_) {
    Packet copy = packet;
    simulator_.schedule_in(config_.fabric_delay,
                           [this, copy] { uplink_(copy); });
  }
}

void Switch::enqueue_downlink(int port, Packet packet) {
  Port& p = ports_.at(static_cast<std::size_t>(port));
  bool mark_ce = false;
  if (!mmu_.admit(port, packet.bytes, packet.ect, &mark_ce)) {
    return;  // congestion discard; MMU counted it
  }
  if (mark_ce) packet.ce = true;
  p.fifo.push_back(packet);
  if (!p.transmitting) drain_port(port);
}

void Switch::drain_port(int port) {
  Port& p = ports_.at(static_cast<std::size_t>(port));
  if (p.fifo.empty()) {
    p.transmitting = false;
    return;
  }
  p.transmitting = true;
  const Packet pkt = p.fifo.pop_front();
  const sim::SimDuration ser =
      sim::serialize_time(pkt.bytes, config_.downlink_gbps);
  // At 72 bytes this is the largest capture of any event in the tree; it
  // sets sim::Simulator::kCallbackBytes, the inline callback storage.
  simulator_.schedule_in(ser, [this, port, pkt] {
    // Buffer is freed when the packet finishes serializing out the port.
    mmu_.release(port, pkt.bytes);
    Port& pp = ports_[static_cast<std::size_t>(port)];
    simulator_.schedule_in(config_.downlink_propagation, [&pp, pkt] {
      if (pp.deliver) pp.deliver(pkt);
    });
    drain_port(port);
  });
}

}  // namespace msamp::net
