// Tests for the discrete-event engine.
#include "sim/simulator.h"

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace msamp::sim {
namespace {

TEST(Simulator, FiresInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule_at(30, [&] { order.push_back(3); });
  simulator.schedule_at(10, [&] { order.push_back(1); });
  simulator.schedule_at(20, [&] { order.push_back(2); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.now(), 30);
}

TEST(Simulator, EqualTimesFifo) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulator.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  simulator.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleInRelative) {
  Simulator simulator;
  SimTime fired = -1;
  simulator.schedule_at(100, [&] {
    simulator.schedule_in(50, [&] { fired = simulator.now(); });
  });
  simulator.run();
  EXPECT_EQ(fired, 150);
}

TEST(Simulator, PastSchedulesClampToNow) {
  Simulator simulator;
  SimTime fired = -1;
  simulator.schedule_at(100, [&] {
    simulator.schedule_at(10, [&] { fired = simulator.now(); });
  });
  simulator.run();
  EXPECT_EQ(fired, 100);
}

TEST(Simulator, NegativeDelayClamps) {
  Simulator simulator;
  bool fired = false;
  simulator.schedule_in(-5, [&] { fired = true; });
  simulator.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator simulator;
  bool fired = false;
  const auto id = simulator.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(simulator.cancel(id));
  simulator.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelUnknownIsNoop) {
  Simulator simulator;
  EXPECT_FALSE(simulator.cancel(0));
  EXPECT_FALSE(simulator.cancel(12345));
}

TEST(Simulator, DoubleCancelReturnsFalse) {
  Simulator simulator;
  const auto id = simulator.schedule_at(10, [] {});
  EXPECT_TRUE(simulator.cancel(id));
  EXPECT_FALSE(simulator.cancel(id));
  simulator.run();
}

TEST(Simulator, CancelFromOwnCallbackIsNoop) {
  // The event is no longer pending while its callback runs: cancelling it
  // there is a no-op that leaves nothing behind.
  Simulator simulator;
  std::uint64_t id = 0;
  bool inside = true;
  id = simulator.schedule_at(10, [&] { inside = simulator.cancel(id); });
  simulator.run();
  EXPECT_FALSE(inside);
  EXPECT_FALSE(simulator.cancel(id));
  bool later = false;
  simulator.schedule_at(20, [&] { later = true; });
  EXPECT_FALSE(simulator.cancel(id));
  simulator.run();
  EXPECT_TRUE(later);
  EXPECT_EQ(simulator.dispatched(), 2u);
}

TEST(Simulator, RecycledSlotIdDoesNotCancel) {
  // A fired or cancelled event's storage is reused by the next schedule;
  // the old id must not reach the event that took it over, however many
  // times the storage has turned over.
  Simulator simulator;
  std::vector<std::uint64_t> old_ids;
  int fired = 0;
  for (int round = 0; round < 100; ++round) {
    const auto id =
        simulator.schedule_in(round % 3, [&fired] { ++fired; });
    EXPECT_NE(id, 0u);
    for (const auto old : old_ids) EXPECT_NE(id, old);
    for (const auto old : old_ids) EXPECT_FALSE(simulator.cancel(old));
    if (round % 2 == 0) {
      EXPECT_TRUE(simulator.cancel(id));
    } else {
      simulator.run();
    }
    old_ids.push_back(id);
  }
  EXPECT_EQ(fired, 50);
  EXPECT_EQ(simulator.dispatched(), 50u);
}

TEST(Simulator, MoveOnlyCallbacksRunAndAreDestroyed) {
  // Callbacks may be move-only.  Each is destroyed exactly once: after it
  // fires, when it is cancelled, or with the engine if still pending.
  auto token = std::make_shared<int>(0);
  {
    Simulator simulator;
    int fired = 0;
    simulator.schedule_at(10, [owned = std::make_unique<int>(7), &fired] {
      fired += *owned;
    });
    simulator.schedule_at(20, [token, &fired] { fired += 100; });
    const auto cancelled = simulator.schedule_at(30, [token] {});
    simulator.schedule_at(40, [token] {});
    EXPECT_EQ(token.use_count(), 4);
    EXPECT_TRUE(simulator.cancel(cancelled));
    EXPECT_EQ(token.use_count(), 3);
    simulator.run_until(25);
    EXPECT_EQ(fired, 107);
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Simulator, CapturesSurviveSlabGrowth) {
  // Captures as large as the bound, trivially copyable or not, keep their
  // values while the engine relocates them to grow its storage, including
  // growth caused from inside a running callback.
  Simulator simulator;
  std::array<std::int64_t, 8> fill{};
  std::int64_t sum = 0;
  std::vector<std::string> seen;
  for (int i = 0; i < 300; ++i) {
    fill.fill(i);
    simulator.schedule_at(1000 - i, [&sum, fill] {
      for (const auto v : fill) sum += v;
    });
    std::string text = std::to_string(i) + std::string(40, 'x');
    simulator.schedule_at(2000 + i, [&seen, text] { seen.push_back(text); });
  }
  static_assert(sizeof(fill) + sizeof(&sum) == Simulator::kCallbackBytes);
  simulator.schedule_at(500, [&] {
    for (int i = 0; i < 1000; ++i) {
      std::string text(60, 'y');
      simulator.schedule_in(3000, [&seen, text] { seen.push_back(text); });
    }
  });
  simulator.run();
  EXPECT_EQ(sum, 8 * 299 * 300 / 2);
  ASSERT_EQ(seen.size(), 1300u);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)],
              std::to_string(i) + std::string(40, 'x'));
  }
  EXPECT_EQ(seen.back(), std::string(60, 'y'));
}

TEST(Simulator, RunUntilStopsAtLimit) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule_at(10, [&] { ++fired; });
  simulator.schedule_at(20, [&] { ++fired; });
  simulator.schedule_at(30, [&] { ++fired; });
  simulator.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(simulator.now(), 20);
  simulator.run_until(100);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(simulator.now(), 100);
}

TEST(Simulator, DispatchedCounts) {
  Simulator simulator;
  for (int i = 0; i < 5; ++i) simulator.schedule_at(i, [] {});
  simulator.run();
  EXPECT_EQ(simulator.dispatched(), 5u);
}

TEST(Simulator, EventsScheduledDuringRun) {
  Simulator simulator;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 100) simulator.schedule_in(1, step);
  };
  simulator.schedule_at(0, step);
  simulator.run();
  EXPECT_EQ(chain, 100);
  EXPECT_EQ(simulator.now(), 99);
}

TEST(SimTimeHelpers, Conversions) {
  EXPECT_DOUBLE_EQ(to_ms(kMillisecond), 1.0);
  EXPECT_DOUBLE_EQ(to_sec(kSecond), 1.0);
  // 12.5 Gb/s for 1ms = 1.5625 MB.
  EXPECT_NEAR(bytes_in(kMillisecond, 12.5), 1562500.0, 1.0);
  // 1500B at 12.5Gb/s = 960ns.
  EXPECT_EQ(serialize_time(1500, 12.5), 960);
}

}  // namespace
}  // namespace msamp::sim
