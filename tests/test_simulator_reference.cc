// Reference test for the discrete-event engine.  RefSimulator below is the
// engine as it stood before the indexed heap: a std::priority_queue of
// std::function events, with cancellation by a sorted vector of tombstoned
// ids that run() skips on pop.  The tests drive it side by side with
// sim::Simulator from seeded random scripts -- equal timestamps, past-time
// and negative-delay clamps, scheduling and cancelling from inside
// callbacks, run_until at and between event times, cancels of pending,
// fired, cancelled, unknown and 0 ids -- and after every call compare the
// fire sequence, now(), dispatched() and each cancel() result.  Any change
// to the order events fire in fails here before it moves a packet-level
// window's bytes or its event count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"

namespace msamp::sim {
namespace {

// ---- The reference engine ----

class RefSimulator {
 public:
  using Callback = std::function<void()>;

  SimTime now() const noexcept { return now_; }

  std::uint64_t schedule_at(SimTime when, Callback cb) {
    if (when < now_) when = now_;
    const std::uint64_t id = next_seq_++;
    queue_.push(Event{when, id, std::move(cb)});
    return id;
  }

  std::uint64_t schedule_in(SimDuration delay, Callback cb) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(cb));
  }

  bool cancel(std::uint64_t id) {
    if (id == 0 || id >= next_seq_) return false;
    const auto it = std::lower_bound(cancelled_.begin(), cancelled_.end(), id);
    if (it != cancelled_.end() && *it == id) return false;
    cancelled_.insert(it, id);
    return true;
  }

  void run_until(SimTime limit) {
    while (!queue_.empty() && queue_.top().when <= limit) {
      Event ev = queue_.top();
      queue_.pop();
      const auto it =
          std::lower_bound(cancelled_.begin(), cancelled_.end(), ev.seq);
      if (it != cancelled_.end() && *it == ev.seq) {
        cancelled_.erase(it);
        continue;
      }
      now_ = ev.when;
      ++dispatched_;
      ev.cb();
    }
    if (now_ < limit) now_ = limit;
  }

  void run() {
    while (!queue_.empty()) {
      Event ev = queue_.top();
      queue_.pop();
      const auto it =
          std::lower_bound(cancelled_.begin(), cancelled_.end(), ev.seq);
      if (it != cancelled_.end() && *it == ev.seq) {
        cancelled_.erase(it);
        continue;
      }
      now_ = ev.when;
      ++dispatched_;
      ev.cb();
    }
  }

  std::uint64_t dispatched() const noexcept { return dispatched_; }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t dispatched_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<std::uint64_t> cancelled_;
};

// ---- Scripts ----

/// How a script's events are spread: the range of delays, and how much of
/// each callback schedules, cancels and nests.
struct Profile {
  int delay_steps;     ///< delays are multiples of 10ns in [0, delay_steps)
  int run_steps;       ///< run_until moves at most run_steps * 10ns ahead
  int schedule_burst;  ///< most events one top-level schedule call makes
  int max_depth;       ///< callbacks at depth > 0 schedule children
};

/// What a script exercised, so a test can insist every case came up.
struct Coverage {
  std::size_t most_live = 0;
  int pending_cancels = 0;
  int stale_cancels = 0;  ///< fired or already cancelled tags
  int self_cancels = 0;
  int raw_cancels = 0;  ///< 0 and ids no schedule call returned
  int clamped = 0;      ///< schedules into the past or with negative delay
  int ties = 0;         ///< fires at the same time as the previous fire
};

/// One log line: an event fired, or a cancel() returned.
struct Entry {
  enum Kind { kFire, kCancel } kind;
  std::uint32_t tag;  ///< schedule call's serial number; unused for ids
                      ///< no schedule call returned
  SimTime at;         ///< now() when it happened
  bool result;        ///< cancel() result
  bool was_pending;   ///< the script's own view: the tag had neither fired
                      ///< nor been cancelled

  bool operator==(const Entry&) const = default;
};

/// Drives one engine through a seeded script.  Every choice -- top-level
/// calls and what each callback does when it fires -- comes from the
/// script's own Rng in the order the engine calls back, so two engines that
/// fire in the same order make exactly the same calls.  Events are named
/// by tags (the serial number of the schedule call), since each engine
/// hands out its own ids.
template <class Engine>
class Script {
 public:
  Script(std::uint64_t seed, const Profile& profile)
      : rng_(seed), profile_(profile) {}

  /// One top-level call, chosen by the Rng.
  void step() {
    const std::uint64_t pick = rng_.uniform_int(100);
    if (pick < 40) {
      const std::int64_t n = 1 + draw(profile_.schedule_burst);
      for (std::int64_t i = 0; i < n; ++i) schedule(profile_.max_depth);
    } else if (pick < 60) {
      cancel_one();
    } else if (pick < 75) {
      // run_until exactly at a pending event's time (it must fire), or at
      // one nanosecond before it (it must not).
      const auto pending = pending_tags();
      if (pending.empty()) {
        sim_.run_until(sim_.now());
      } else {
        const SimTime t = when_[pending[rng_.uniform_int(pending.size())]];
        sim_.run_until(t - draw(2));
      }
    } else if (pick < 95) {
      // run_until between event times, in the past included.
      sim_.run_until(sim_.now() + draw(profile_.run_steps * 10) - 5);
    } else {
      sim_.run();
    }
  }

  const Engine& engine() const noexcept { return sim_; }
  const std::vector<Entry>& log() const noexcept { return log_; }
  std::size_t live() const noexcept { return pending_tags().size(); }
  const Coverage& coverage() const noexcept { return coverage_; }

 private:
  enum class State { kPending, kFired, kCancelled };

  /// A uniform draw from [0, n).
  std::int64_t draw(std::int64_t n) {
    return static_cast<std::int64_t>(
        rng_.uniform_int(static_cast<std::uint64_t>(n)));
  }

  SimDuration draw_delay() { return draw(profile_.delay_steps) * 10; }

  void schedule(int depth) {
    const auto tag = static_cast<std::uint32_t>(ids_.size());
    auto cb = [this, tag, depth] { fire(tag, depth); };
    std::uint64_t id = 0;
    SimTime when = 0;
    switch (rng_.uniform_int(4)) {
      case 0:  // absolute, possibly in the past (clamps to now)
        when = sim_.now() + draw_delay() - 25;
        id = sim_.schedule_at(when, cb);
        if (when < sim_.now()) ++coverage_.clamped;
        when = std::max(when, sim_.now());
        break;
      case 1:  // negative delay (clamps to now)
        when = sim_.now();
        id = sim_.schedule_in(-draw(50), cb);
        ++coverage_.clamped;
        break;
      default:
        when = sim_.now() + draw_delay();
        id = sim_.schedule_in(when - sim_.now(), cb);
        break;
    }
    ids_.push_back(id);
    when_.push_back(when);
    state_.push_back(State::kPending);
  }

  void fire(std::uint32_t tag, int depth) {
    const bool was_pending = state_[tag] == State::kPending;
    state_[tag] = State::kFired;
    if (!log_.empty() && log_.back().kind == Entry::kFire &&
        log_.back().at == sim_.now()) {
      ++coverage_.ties;
    }
    log_.push_back({Entry::kFire, tag, sim_.now(), false, was_pending});
    if (depth == 0) return;
    const std::int64_t what = draw(8);
    if (what < 3) {
      const std::int64_t n = 1 + draw(2);
      for (std::int64_t i = 0; i < n; ++i) schedule(depth - 1);
    }
    if (what == 3) {  // its own id, from inside its callback
      ++coverage_.self_cancels;
      cancel_tag(tag);
    }
    if (what >= 4 && what < 6) cancel_one();
  }

  std::vector<std::uint32_t> pending_tags() const {
    std::vector<std::uint32_t> out;
    for (std::uint32_t t = 0; t < state_.size(); ++t) {
      if (state_[t] == State::kPending) out.push_back(t);
    }
    return out;
  }

  void cancel_tag(std::uint32_t tag) {
    const bool was_pending = state_[tag] == State::kPending;
    const bool result = sim_.cancel(ids_[tag]);
    if (was_pending) state_[tag] = State::kCancelled;
    ++(was_pending ? coverage_.pending_cancels : coverage_.stale_cancels);
    log_.push_back({Entry::kCancel, tag, sim_.now(), result, was_pending});
  }

  void cancel_raw(std::uint64_t id) {
    const bool result = sim_.cancel(id);
    ++coverage_.raw_cancels;
    log_.push_back(
        {Entry::kCancel, 0xffffffffu, sim_.now(), result, false});
  }

  void cancel_one() {
    const std::int64_t kind = draw(10);
    if (kind < 5) {
      const auto pending = pending_tags();
      if (!pending.empty()) {
        cancel_tag(pending[rng_.uniform_int(pending.size())]);
        return;
      }
    }
    if (kind < 8 && !ids_.empty()) {
      // Any tag: fired, cancelled (twice over) or still pending.
      cancel_tag(static_cast<std::uint32_t>(rng_.uniform_int(ids_.size())));
      return;
    }
    if (kind == 8) {
      cancel_raw(0);
      return;
    }
    // An id no schedule call returned: far past the last one, in every
    // encoding either engine uses.
    cancel_raw(~std::uint64_t{0} - rng_.uniform_int(1000));
  }

  Engine sim_;
  util::Rng rng_;
  Profile profile_;
  std::vector<std::uint64_t> ids_;  // by tag
  std::vector<SimTime> when_;       // by tag, after the clamp
  std::vector<State> state_;        // by tag
  std::vector<Entry> log_;
  Coverage coverage_;
};

/// The one difference from the reference that is allowed: the reference
/// cannot tell a fired id (its own, inside its callback, included) or a
/// cancelled id whose time has passed from a pending one, and answers true.
/// The engine under test may answer false there, as its contract says.
bool same_entry(const Entry& ref, const Entry& got) {
  if (ref == got) return true;
  return ref.kind == Entry::kCancel && got.kind == Entry::kCancel &&
         ref.tag == got.tag && ref.at == got.at &&
         ref.was_pending == got.was_pending && !ref.was_pending &&
         ref.result && !got.result;
}

/// Runs `steps` top-level calls of seed `seed` on both engines, comparing
/// after every call, and adds what the script exercised to `total`.
void run_script(std::uint64_t seed, const Profile& profile, int steps,
                Coverage& total) {
  Script<RefSimulator> ref(seed, profile);
  Script<Simulator> got(seed, profile);
  std::size_t checked = 0;
  std::size_t most_live = 0;
  for (int s = 0; s < steps; ++s) {
    ref.step();
    got.step();
    EXPECT_EQ(ref.engine().now(), got.engine().now())
        << "seed " << seed << " step " << s;
    EXPECT_EQ(ref.engine().dispatched(), got.engine().dispatched())
        << "seed " << seed << " step " << s;
    EXPECT_EQ(ref.log().size(), got.log().size())
        << "seed " << seed << " step " << s;
    const std::size_t n = std::min(ref.log().size(), got.log().size());
    for (; checked < n; ++checked) {
      const Entry& a = ref.log()[checked];
      const Entry& b = got.log()[checked];
      EXPECT_TRUE(same_entry(a, b))
          << "seed " << seed << " step " << s << " entry " << checked
          << ": reference " << (a.kind == Entry::kFire ? "fire" : "cancel")
          << " tag " << a.tag << " at " << a.at << " -> " << a.result
          << ", engine " << (b.kind == Entry::kFire ? "fire" : "cancel")
          << " tag " << b.tag << " at " << b.at << " -> " << b.result;
    }
    if (::testing::Test::HasFailure()) return;
    most_live = std::max(most_live, got.live());
  }
  const Coverage& c = got.coverage();
  total.most_live = std::max(total.most_live, most_live);
  total.pending_cancels += c.pending_cancels;
  total.stale_cancels += c.stale_cancels;
  total.self_cancels += c.self_cancels;
  total.raw_cancels += c.raw_cancels;
  total.clamped += c.clamped;
  total.ties += c.ties;
}

void expect_every_case(const Coverage& c) {
  EXPECT_GT(c.pending_cancels, 0);
  EXPECT_GT(c.stale_cancels, 0);
  EXPECT_GT(c.self_cancels, 0);
  EXPECT_GT(c.raw_cancels, 0);
  EXPECT_GT(c.clamped, 0);
}

TEST(SimulatorReference, DenseTiesMatch) {
  // Four distinct delays: most events share a timestamp with another.
  Coverage c;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    run_script(seed,
               {.delay_steps = 4, .run_steps = 4, .schedule_burst = 4,
                .max_depth = 2},
               250, c);
    if (HasFailure()) return;
  }
  expect_every_case(c);
  EXPECT_GT(c.ties, 1000);
}

TEST(SimulatorReference, SpreadTimesMatch) {
  Coverage c;
  for (std::uint64_t seed = 1000; seed <= 1150; ++seed) {
    run_script(seed,
               {.delay_steps = 500, .run_steps = 500, .schedule_burst = 3,
                .max_depth = 3},
               250, c);
    if (HasFailure()) return;
  }
  expect_every_case(c);
}

TEST(SimulatorReference, DeepHeapMatches) {
  // Bursts of schedules with delays 25 times what one run_until covers
  // keep hundreds of events live, so the heap is deep and cancels remove
  // keys from its middle.
  Coverage c;
  for (std::uint64_t seed = 5000; seed <= 5020; ++seed) {
    run_script(seed,
               {.delay_steps = 5000, .run_steps = 200, .schedule_burst = 60,
                .max_depth = 1},
               400, c);
    if (HasFailure()) return;
  }
  expect_every_case(c);
  EXPECT_GE(c.most_live, 400u);
}

}  // namespace
}  // namespace msamp::sim
