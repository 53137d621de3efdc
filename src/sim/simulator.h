// Minimal discrete-event simulator: a clock plus an indexed min-heap of
// callbacks.  The packet-level rack simulator (src/net, src/transport) and
// the validation tools (src/workload) are built on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace msamp::sim {

/// Discrete-event scheduler.  Single-threaded; events at equal timestamps
/// fire in scheduling (FIFO) order so runs are fully deterministic.
///
/// The heap holds only live events: one small key per pending event, whose
/// heap position its slot records, so `cancel` takes the key out at once
/// and the heap never carries a cancelled event.  Callbacks live in a slab
/// of slots reused through a free list, each in fixed inline storage, so
/// once the slab has grown to the most events ever pending at once,
/// scheduling, firing and cancelling allocate nothing.
class Simulator {
 public:
  /// The largest capture an event callback may have: the switch's
  /// end-of-serialization event, `[this, port, pkt]` in net/switch.cc
  /// (8 + 4 + 4 padding + a 56-byte net::Packet).  A larger capture fails
  /// to compile.
  static constexpr std::size_t kCallbackBytes = 72;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  SimTime now() const noexcept { return now_; }

  /// Schedules `fn` -- any `void()` callable of at most kCallbackBytes,
  /// move-only ones included; it is moved (or copied) into the engine --
  /// to run at absolute time `when` (clamped to `now()`).  Returns an
  /// opaque nonzero id usable with `cancel`.
  template <class F>
  std::uint64_t schedule_at(SimTime when, F&& fn) {
    if (free_ == kNoSlot) grow();
    const std::uint32_t slot = free_;
    Slot& s = slots_[slot];
    s.cb.emplace(std::forward<F>(fn));
    free_ = s.link;
    heap_.emplace_back();  // the hole sift_up starts from
    sift_up(static_cast<std::uint32_t>(heap_.size() - 1),
            Key{when < now_ ? now_ : when, next_seq_++, slot});
    return (std::uint64_t{s.generation} << 32) | (slot + 1);
  }

  /// Schedules `fn` to run `delay` from now.
  template <class F>
  std::uint64_t schedule_in(SimDuration delay, F&& fn) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::forward<F>(fn));
  }

  /// Cancels a pending event, destroying its callback. Cancelling an
  /// already-fired (or firing: from its own callback), already-cancelled or
  /// unknown id is a no-op. Returns true if the event was pending.
  bool cancel(std::uint64_t id);

  /// Runs events until the queue is empty or `limit` is reached (whichever
  /// first); the clock ends at the last fired event (or `limit`).
  void run_until(SimTime limit);

  /// Runs all pending events.
  void run();

  /// Total events dispatched, for tests and perf accounting.
  std::uint64_t dispatched() const noexcept { return dispatched_; }

 private:
  /// A move-only `void()` callable held in fixed inline storage.  Moving
  /// one relocates the callable: `memcpy` when it is trivially copyable,
  /// placement new plus the source's destructor otherwise.
  class Callback {
   public:
    Callback() noexcept = default;
    Callback(Callback&& other) noexcept
        : invoke_(other.invoke_), manage_(other.manage_) {
      if (manage_ != nullptr) {
        manage_(storage_, other.storage_);
      } else {
        std::memcpy(storage_, other.storage_, kCallbackBytes);
      }
      other.invoke_ = nullptr;
      other.manage_ = nullptr;
    }
    ~Callback() {
      if (manage_ != nullptr) manage_(nullptr, storage_);
    }

    template <class F>
    void emplace(F&& fn) {
      using T = std::decay_t<F>;
      static_assert(sizeof(T) <= kCallbackBytes,
                    "event callback capture exceeds Simulator::kCallbackBytes");
      static_assert(alignof(T) <= alignof(std::uint64_t),
                    "event callback capture is over-aligned");
      static_assert(std::is_nothrow_move_constructible_v<T>,
                    "event callbacks must be nothrow move-constructible");
      ::new (static_cast<void*>(storage_)) T(std::forward<F>(fn));
      invoke_ = [](void* p) { (*static_cast<T*>(p))(); };
      if constexpr (!std::is_trivially_copyable_v<T>) {
        manage_ = [](void* dst, void* src) noexcept {
          T* from = static_cast<T*>(src);
          if (dst != nullptr) ::new (dst) T(std::move(*from));
          from->~T();
        };
      }
    }

    void operator()() { invoke_(storage_); }

   private:
    alignas(std::uint64_t) unsigned char storage_[kCallbackBytes];
    void (*invoke_)(void*) = nullptr;
    // Relocates into `dst`, or only destroys when `dst` is null; null for
    // trivially copyable callables, which need neither.
    void (*manage_)(void* dst, void* src) noexcept = nullptr;
  };

  /// A pending event's heap key.
  struct Key {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;

    // Earlier time first; among equal times, earlier scheduled first.
    bool operator<(const Key& other) const noexcept {
      return when != other.when ? when < other.when : seq < other.seq;
    }
  };

  struct Slot {
    Callback cb;
    // Bumped each time the slot's event fires or is cancelled, so no id
    // handed out before matches the slot's next event.
    std::uint32_t generation = 0;
    // While the event is pending: its key's heap position.  While free:
    // the next free slot.
    std::uint32_t link = kNoSlot;
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  void grow();
  void release(std::uint32_t slot) noexcept;
  void remove_at(std::uint32_t pos) noexcept;
  void sift_up(std::uint32_t pos, const Key& key) noexcept;
  void sift_down(std::uint32_t pos, const Key& key) noexcept;
  void place(std::uint32_t pos, const Key& key) noexcept {
    heap_[pos] = key;
    slots_[key.slot].link = pos;
  }
  void fire_next();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_ = kNoSlot;
};

}  // namespace msamp::sim
