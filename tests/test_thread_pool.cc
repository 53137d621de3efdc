// Unit tests for the deterministic fork-join pool and parallel_map.
#include "util/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/parallel_map.h"

namespace msamp::util {
namespace {

/// Clears MSAMP_THREADS for the test's duration so `resolve` and pool
/// sizing see only the requested value, and restores it afterwards.
class ScopedNoEnvThreads {
 public:
  ScopedNoEnvThreads() {
    const char* v = std::getenv("MSAMP_THREADS");
    if (v != nullptr) saved_ = v;
    unsetenv("MSAMP_THREADS");
  }
  ~ScopedNoEnvThreads() {
    if (!saved_.empty()) setenv("MSAMP_THREADS", saved_.c_str(), 1);
  }

 private:
  std::string saved_;
};

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ScopedNoEnvThreads no_env;
  for (int threads : {1, 2, 4, 7}) {
    ThreadPool pool(threads);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0);
    pool.parallel_for(kN, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ThreadPool, MoreLanesThanWork) {
  ScopedNoEnvThreads no_env;
  ThreadPool pool(8);
  EXPECT_EQ(pool.size(), 8);
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(3, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroItemsIsANoop) {
  ScopedNoEnvThreads no_env;
  ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ScopedNoEnvThreads no_env;
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  for (int round = 0; round < 20; ++round) {
    pool.parallel_for(100, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 20L * (99L * 100L / 2));
}

TEST(ThreadPool, ResolvePrefersRequestThenEnvThenHardware) {
  ScopedNoEnvThreads no_env;
  EXPECT_EQ(ThreadPool::resolve(5), 5);
  EXPECT_GE(ThreadPool::resolve(0), 1);  // hardware concurrency, >= 1
  setenv("MSAMP_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::resolve(0), 3);
  EXPECT_EQ(ThreadPool::resolve(16), 16);  // explicit request beats env
  setenv("MSAMP_THREADS", "garbage", 1);
  EXPECT_EQ(ThreadPool::resolve(2), 2);  // unparsable env is ignored
  setenv("MSAMP_THREADS", "-4", 1);
  EXPECT_EQ(ThreadPool::resolve(2), 2);  // non-positive env is ignored
  unsetenv("MSAMP_THREADS");
}

TEST(ThreadPool, ResolveClampsBothRequestAndEnv) {
  ScopedNoEnvThreads no_env;
  EXPECT_EQ(ThreadPool::resolve(5000), 1024);
  setenv("MSAMP_THREADS", "999999", 1);
  EXPECT_EQ(ThreadPool::resolve(0), 1024);
  unsetenv("MSAMP_THREADS");
}

TEST(ThreadPool, ResolveValuesClampsEveryPath) {
  // The pure rule behind resolve(): request, env, and — the regression
  // this test exists for — the hardware_concurrency fallback all clamp
  // to 1024.
  EXPECT_EQ(ThreadPool::resolve_values(5, nullptr, 8), 5);
  EXPECT_EQ(ThreadPool::resolve_values(5000, nullptr, 8), 1024);
  EXPECT_EQ(ThreadPool::resolve_values(0, "12", 8), 12);
  EXPECT_EQ(ThreadPool::resolve_values(0, "999999", 8), 1024);
  EXPECT_EQ(ThreadPool::resolve_values(0, "garbage", 8), 8);
  EXPECT_EQ(ThreadPool::resolve_values(0, nullptr, 8), 8);
  EXPECT_EQ(ThreadPool::resolve_values(0, nullptr, 5000u), 1024);
  EXPECT_EQ(ThreadPool::resolve_values(0, nullptr, 0), 1);  // unknown hw
}

TEST(ThreadPool, NestedParallelForOnSamePoolThrows) {
  ScopedNoEnvThreads no_env;
  for (int threads : {1, 4}) {  // serial fast path and the worker path
    ThreadPool pool(threads);
    EXPECT_THROW(pool.parallel_for(
                     4,
                     [&](std::size_t) {
                       pool.parallel_for(2, [](std::size_t) {});
                     }),
                 std::logic_error)
        << "threads=" << threads;
    // The guard must release: the pool stays usable after the throw.
    std::atomic<long> sum{0};
    pool.parallel_for(10, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 45L);
  }
}

TEST(ThreadPool, ConcurrentParallelForFromAnotherThreadThrows) {
  ScopedNoEnvThreads no_env;
  ThreadPool pool(2);
  std::atomic<bool> threw{false};
  pool.parallel_for(4, [&](std::size_t i) {
    if (i != 0) return;
    // While this body (and therefore the outer job) is live, a second
    // thread's attempt to use the same pool must fail loudly.
    std::thread second([&] {
      try {
        pool.parallel_for(2, [](std::size_t) {});
      } catch (const std::logic_error&) {
        threw.store(true, std::memory_order_relaxed);
      }
    });
    second.join();
  });
  EXPECT_TRUE(threw.load());
}

TEST(ThreadPool, NestedParallelForOnDistinctPoolsWorks) {
  // Regression guard for the nested benches: nesting is fine as long as
  // each nesting level runs on its own pool.
  ScopedNoEnvThreads no_env;
  ThreadPool outer(2);
  std::vector<std::unique_ptr<ThreadPool>> inner;
  inner.push_back(std::make_unique<ThreadPool>(2));
  inner.push_back(std::make_unique<ThreadPool>(2));
  std::atomic<long> sum{0};
  outer.parallel_for(2, [&](std::size_t i) {
    inner[i]->parallel_for(100, [&](std::size_t j) {
      sum.fetch_add(static_cast<long>(j), std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(sum.load(), 2L * (99L * 100L / 2));
}

TEST(ThreadPool, LaneAwareOverloadPinsLanesAndCoversAllIndices) {
  ScopedNoEnvThreads no_env;
  ThreadPool pool(4);
  constexpr std::size_t kN = 2000;
  std::vector<std::atomic<int>> lane_of(kN);
  for (auto& l : lane_of) l.store(-1);
  pool.parallel_for(kN, std::function<void(int, std::size_t)>(
                            [&](int lane, std::size_t i) {
                              EXPECT_GE(lane, 0);
                              EXPECT_LT(lane, pool.size());
                              lane_of[i].store(lane,
                                               std::memory_order_relaxed);
                            }));
  for (std::size_t i = 0; i < kN; ++i) EXPECT_GE(lane_of[i].load(), 0);
}

TEST(ThreadPool, ThrowingBodyPropagatesAndPoolStaysUsable) {
  ScopedNoEnvThreads no_env;
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    for (int round = 0; round < 3; ++round) {
      EXPECT_THROW(
          pool.parallel_for(200,
                            [&](std::size_t i) {
                              if (i == 150) throw std::runtime_error("boom");
                            }),
          std::runtime_error)
          << "threads=" << threads << " round=" << round;
      // The pool must come back clean: the next job runs every index.
      std::atomic<long> sum{0};
      pool.parallel_for(100, [&](std::size_t i) {
        sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
      });
      EXPECT_EQ(sum.load(), 99L * 100L / 2);
    }
  }
}

TEST(ThreadPool, ThrowKeepsTheMessage) {
  ScopedNoEnvThreads no_env;
  ThreadPool pool(4);
  try {
    pool.parallel_for(50, [](std::size_t i) {
      if (i == 10) throw std::runtime_error("window 10 failed");
    });
    FAIL() << "expected the body's exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "window 10 failed");
  }
}

TEST(ParallelMap, CanonicalOrderForAnyThreadCount) {
  ScopedNoEnvThreads no_env;
  for (int threads : {1, 2, 4, 7}) {
    ThreadPool pool(threads);
    const auto out = parallel_map(
        pool, 500, [](std::size_t i) { return static_cast<long>(i * i); });
    ASSERT_EQ(out.size(), 500u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<long>(i * i)) << "threads=" << threads;
    }
  }
}

TEST(ParallelMap, EmptyRangeAndThrowingFn) {
  ScopedNoEnvThreads no_env;
  ThreadPool pool(4);
  EXPECT_TRUE(parallel_map(pool, 0, [](std::size_t i) { return i; }).empty());
  EXPECT_THROW(parallel_map(pool, 20,
                            [](std::size_t i) -> int {
                              if (i == 7) throw std::runtime_error("bad");
                              return static_cast<int>(i);
                            }),
               std::runtime_error);
}

TEST(ThreadPool, SizeCountsTheCallingThread) {
  ScopedNoEnvThreads no_env;
  ThreadPool one(1);
  EXPECT_EQ(one.size(), 1);
  ThreadPool four(4);
  EXPECT_EQ(four.size(), 4);
}

}  // namespace
}  // namespace msamp::util
