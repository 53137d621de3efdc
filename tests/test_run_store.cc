// Tests for the on-disk run store (§4.1-§4.2 persistence + retention).
#include "core/run_store.h"

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

namespace msamp::core {
namespace {

namespace fs = std::filesystem;

struct RunStoreFixture : ::testing::Test {
  // One directory per test, like the fresh_dir helpers of the other
  // on-disk suites: ctest runs every test as its own process, so under
  // `ctest -j` a shared name would let one test's TearDown delete the
  // files of another.
  std::string dir =
      std::string("test_run_store_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();

  void SetUp() override { fs::remove_all(dir); }
  void TearDown() override { fs::remove_all(dir); }

  RunStoreConfig cfg() {
    RunStoreConfig c;
    c.directory = dir;
    return c;
  }

  RunRecord record(sim::SimTime start, std::int64_t fill = 1000) {
    RunRecord r;
    r.host = 1;
    r.start = start;
    r.interval = sim::kMillisecond;
    r.buckets.resize(50);
    for (std::size_t i = 0; i < r.buckets.size(); i += 3) {
      r.buckets[i].in_bytes = fill + static_cast<std::int64_t>(i);
    }
    return r;
  }
};

TEST_F(RunStoreFixture, PutAndGet) {
  RunStore store(cfg());
  ASSERT_TRUE(store.put(record(5 * sim::kSecond)));
  EXPECT_EQ(store.size(), 1u);
  const auto back = store.get(5 * sim::kSecond);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->start, 5 * sim::kSecond);
  EXPECT_EQ(back->buckets.size(), 50u);
  EXPECT_EQ(back->buckets[0].in_bytes, 1000);
  EXPECT_FALSE(store.get(6 * sim::kSecond).has_value());
}

TEST_F(RunStoreFixture, InvalidRunRejected) {
  RunStore store(cfg());
  RunRecord never_started;
  never_started.host = 1;
  EXPECT_FALSE(store.put(never_started));
  EXPECT_EQ(store.size(), 0u);
}

TEST_F(RunStoreFixture, QueryRangeSorted) {
  RunStore store(cfg());
  // Insert out of order.
  store.put(record(30 * sim::kSecond));
  store.put(record(10 * sim::kSecond));
  store.put(record(20 * sim::kSecond));
  store.put(record(40 * sim::kSecond));
  const auto runs =
      store.query(10 * sim::kSecond, 40 * sim::kSecond);  // [10, 40)
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].start, 10 * sim::kSecond);
  EXPECT_EQ(runs[1].start, 20 * sim::kSecond);
  EXPECT_EQ(runs[2].start, 30 * sim::kSecond);
}

TEST_F(RunStoreFixture, PersistsAcrossInstances) {
  {
    RunStore store(cfg());
    store.put(record(7 * sim::kSecond));
  }
  RunStore reopened(cfg());
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_TRUE(reopened.get(7 * sim::kSecond).has_value());
}

TEST_F(RunStoreFixture, SweepByAge) {
  auto c = cfg();
  c.retention = 60 * sim::kSecond;
  RunStore store(c);
  store.put(record(10 * sim::kSecond));
  store.put(record(100 * sim::kSecond));
  store.put(record(110 * sim::kSecond));
  // At t=120s, the 10s run is older than the 60s retention.
  EXPECT_EQ(store.sweep(120 * sim::kSecond), 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.get(10 * sim::kSecond).has_value());
}

TEST_F(RunStoreFixture, SweepByBudgetEvictsOldest) {
  auto c = cfg();
  const auto one_run_bytes = [&] {
    RunStore probe(c);
    probe.put(record(1));
    const auto bytes = probe.total_bytes();
    probe.sweep(1LL << 60);
    return bytes;
  }();
  c.max_bytes = one_run_bytes * 2 + one_run_bytes / 2;  // fits two runs
  RunStore store(c);
  store.put(record(10 * sim::kSecond));
  store.put(record(20 * sim::kSecond));
  store.put(record(30 * sim::kSecond));
  EXPECT_GE(store.sweep(40 * sim::kSecond), 1u);
  EXPECT_LE(store.total_bytes(), c.max_bytes);
  // The newest runs survive.
  EXPECT_TRUE(store.get(30 * sim::kSecond).has_value());
  EXPECT_FALSE(store.get(10 * sim::kSecond).has_value());
}

TEST_F(RunStoreFixture, CorruptFileSkipped) {
  RunStore store(cfg());
  store.put(record(10 * sim::kSecond));
  // Truncate the stored file to garbage.
  for (const auto& dirent : fs::directory_iterator(dir)) {
    std::ofstream out(dirent.path(), std::ios::binary | std::ios::trunc);
    out << "junk";
  }
  const auto runs = store.query(0, 1LL << 60);
  EXPECT_TRUE(runs.empty());
  EXPECT_EQ(store.size(), 1u);  // file exists but does not parse
}

TEST_F(RunStoreFixture, ForeignFilesIgnored) {
  RunStore store(cfg());
  std::ofstream(fs::path(dir) / "README.txt") << "not a run";
  store.put(record(10 * sim::kSecond));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.query(0, 1LL << 60).size(), 1u);
}

TEST_F(RunStoreFixture, CompressionKeepsFilesSmall) {
  RunStore store(cfg());
  store.put(record(10 * sim::kSecond));
  // 50 buckets of raw fixed-width serialization would be ~2.4KB; the
  // sparse compressed file stays well under that.
  EXPECT_LT(store.total_bytes(), 800u);
}

}  // namespace
}  // namespace msamp::core
