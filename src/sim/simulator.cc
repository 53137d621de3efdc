#include "sim/simulator.h"

#include <stdexcept>

namespace msamp::sim {

void Simulator::grow() {
  // Slot indices and heap positions are 32-bit, and an id stores slot + 1.
  if (slots_.size() >= kNoSlot) {
    throw std::length_error("sim::Simulator: too many pending events");
  }
  slots_.emplace_back();
  // Each pending event holds its own slot, so with room for a key per slot
  // schedule_at's push onto the heap cannot reallocate, or throw once the
  // callback is in place.
  heap_.reserve(slots_.capacity());
  free_ = static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  // A slot whose generation wraps is retired rather than reused: its next
  // id would repeat one handed out 2^32 events ago.
  if (++s.generation == 0) return;
  s.link = free_;
  free_ = slot;
}

void Simulator::remove_at(std::uint32_t pos) noexcept {
  const Key last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  // The last key fills the hole, moving up if it precedes the hole's
  // parent and down otherwise.
  if (pos > 0 && last < heap_[(pos - 1) / 2]) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

void Simulator::sift_up(std::uint32_t pos, const Key& key) noexcept {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!(key < heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, key);
}

void Simulator::sift_down(std::uint32_t pos, const Key& key) noexcept {
  const auto n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1] < heap_[child]) ++child;
    if (!(heap_[child] < key)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, key);
}

bool Simulator::cancel(std::uint64_t id) {
  const auto low = static_cast<std::uint32_t>(id);
  if (low == 0 || low > slots_.size()) return false;
  const std::uint32_t slot = low - 1;
  Slot& s = slots_[slot];
  if (s.generation != static_cast<std::uint32_t>(id >> 32)) return false;
  // A free slot's generation is one no id has carried yet, but a made-up id
  // could still name it: only a slot whose key is in the heap is pending.
  if (s.link >= heap_.size() || heap_[s.link].slot != slot) return false;
  remove_at(s.link);
  // Destroyed after the slot is free again, so a capture's destructor may
  // call back into the engine.
  Callback dead(std::move(s.cb));
  release(slot);
  return true;
}

void Simulator::fire_next() {
  const Key top = heap_.front();
  remove_at(0);
  // The callback runs from the stack with its slot already free: what it
  // schedules may grow the slab or reuse the slot, and cancelling its own
  // id finds nothing pending.
  Callback cb(std::move(slots_[top.slot].cb));
  release(top.slot);
  now_ = top.when;
  ++dispatched_;
  cb();
}

void Simulator::run_until(SimTime limit) {
  while (!heap_.empty() && heap_.front().when <= limit) fire_next();
  if (now_ < limit) now_ = limit;
}

void Simulator::run() {
  while (!heap_.empty()) fire_next();
}

}  // namespace msamp::sim
