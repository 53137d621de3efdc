// The parallel fleet runner's determinism contract: any thread count
// produces a Dataset byte-identical to the serial sweep (same serialized
// blob, same fingerprint), progress is serialized/monotone, and
// shared_view is safe under concurrent first-callers.
#include "fleet/fleet_runner.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/dataset_view.h"
#include "fleet/merge.h"
#include "workload/diurnal.h"

namespace msamp::fleet {
namespace {

/// Keeps MSAMP_THREADS from overriding the per-test thread counts.
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

/// Small day that still crosses the busy hour (6), so the exemplar
/// selection — the only order-sensitive reduction step — is exercised.
FleetConfig small_day() {
  FleetConfig cfg;
  cfg.racks_per_region = 4;
  cfg.servers_per_rack = 30;
  cfg.hours = 7;
  cfg.samples_per_run = 120;
  cfg.warmup_ms = 10;
  cfg.classify.high_threshold = 2.0;
  return cfg;
}

/// A second shape: different scale, fabric stage on, non-default buffer
/// policy, different seed.
FleetConfig fabric_day() {
  FleetConfig cfg;
  cfg.seed = 1234;
  cfg.racks_per_region = 3;
  cfg.servers_per_rack = 24;
  cfg.hours = 3;
  cfg.samples_per_run = 100;
  cfg.warmup_ms = 10;
  cfg.fabric.enabled = true;
  cfg.buffer.policy = net::BufferPolicy::kBurstAbsorbDt;
  return cfg;
}

TEST(FleetParallel, ByteIdenticalToSerialAcrossThreadCounts) {
  ScopedNoEnvThreads no_env;
  for (const FleetConfig& base : {small_day(), fabric_day()}) {
    FleetConfig serial_cfg = base;
    serial_cfg.threads = 1;
    const std::vector<std::uint8_t> serial_blob =
        run_fleet(serial_cfg).serialize();
    for (int threads : {2, 4, 7}) {
      FleetConfig cfg = base;
      cfg.threads = threads;
      const Dataset parallel = run_fleet(cfg);
      EXPECT_EQ(parallel.fingerprint, serial_cfg.fingerprint())
          << "threads must not enter the fingerprint";
      EXPECT_TRUE(parallel.serialize() == serial_blob)
          << "dataset bytes differ at threads=" << threads
          << " seed=" << base.seed;
    }
  }
}

TEST(FleetParallel, ProgressSerializedStrictlyIncreasingEndsAtOne) {
  ScopedNoEnvThreads no_env;
  FleetConfig cfg = small_day();
  cfg.threads = 4;
  std::vector<double> fractions;
  run_fleet(cfg, [&](double p) {
    // The runner serializes callbacks, so no locking is needed here.
    fractions.push_back(p);
  });
  const std::size_t windows =
      static_cast<std::size_t>(2 * cfg.racks_per_region) *
      static_cast<std::size_t>(cfg.hours);
  ASSERT_EQ(fractions.size(), windows);
  for (std::size_t i = 1; i < fractions.size(); ++i) {
    EXPECT_GT(fractions[i], fractions[i - 1]);
  }
  EXPECT_GT(fractions.front(), 0.0);
  EXPECT_DOUBLE_EQ(fractions.back(), 1.0);
}

TEST(FleetParallel, MergedShardsByteIdenticalAcrossThreadCounts) {
  // The multi-process contract end to end: three shard files generated
  // with *different* thread counts, merged, must equal the serial
  // whole-day run byte for byte (the path msampctl fleet --shard / merge
  // exercises).
  ScopedNoEnvThreads no_env;
  FleetConfig serial_cfg = small_day();
  serial_cfg.threads = 1;
  const std::vector<std::uint8_t> serial_blob =
      run_fleet(serial_cfg).serialize();

  const std::filesystem::path dir = "test_fleet_merged_shards";
  std::filesystem::remove_all(dir);
  std::vector<std::string> paths;
  const int per_shard_threads[] = {1, 3, 4};
  for (std::uint32_t i = 0; i < 3; ++i) {
    FleetConfig cfg = small_day();
    cfg.threads = per_shard_threads[i];
    const ShardSpec shard{i, 3};
    DatasetBuilder builder(cfg, shard);
    run_fleet(cfg, shard, builder);
    paths.push_back((dir / ("shard" + std::to_string(i) + ".bin")).string());
    ASSERT_TRUE(builder.take().save(paths.back()));
  }
  const std::filesystem::path merged = dir / "merged.bin";
  const auto st = merge_shards(paths, merged.string());
  ASSERT_TRUE(st) << st.to_string();
  std::ifstream in(merged, std::ios::binary);
  const std::vector<std::uint8_t> merged_blob{
      std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  EXPECT_TRUE(merged_blob == serial_blob)
      << "merged shard bytes differ from the single-process run";
  std::filesystem::remove_all(dir);
}

struct SinkFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Counts its calls, keeps the windows it accepts, and throws on
/// window `fail_at`.
class ThrowingSink : public WindowSink {
 public:
  explicit ThrowingSink(std::size_t fail_at) : fail_at_(fail_at) {}
  void on_window(std::size_t window, WindowRecords&&) override {
    ++calls;
    if (window == fail_at_) throw SinkFailure("sink rejects window");
    received.push_back(window);
  }
  std::size_t calls = 0;
  std::vector<std::size_t> received;

 private:
  std::size_t fail_at_;
};

TEST(FleetParallel, ThrowingSinkStopsTheRunCleanly) {
  // The sink's exception must come back out of run_fleet (no hang, no
  // other error), and the sink must have seen windows 0..k-1 in order and
  // no call after the one that threw — also when the failure sits in a
  // later chunk (80 windows: chunks of 64).
  ScopedNoEnvThreads no_env;
  FleetConfig base = small_day();
  base.hours = 10;
  for (int threads : {1, 2, 4}) {
    for (std::size_t k : {std::size_t{0}, std::size_t{5}, std::size_t{70}}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " k " +
                   std::to_string(k));
      FleetConfig cfg = base;
      cfg.threads = threads;
      ThrowingSink sink(k);
      EXPECT_THROW(run_fleet(cfg, ShardSpec{}, sink), SinkFailure);
      std::vector<std::size_t> want(k);
      std::iota(want.begin(), want.end(), std::size_t{0});
      EXPECT_EQ(sink.received, want);
      EXPECT_EQ(sink.calls, k + 1);
    }
  }
}

TEST(FleetParallel, SharedDatasetRejectsPartialShardCache) {
  // A partial shard file at the cache path must be regenerated, never
  // silently served as the whole day.
  ScopedNoEnvThreads no_env;
  const std::string cache = "test_fleet_partial_cache/ds.bin";
  std::filesystem::remove_all("test_fleet_partial_cache");
  FleetConfig cfg = fabric_day();
  cfg.seed = 55341;  // unique fingerprint: avoids the process-wide cache
  cfg.threads = 2;
  const ShardSpec shard{0, 2};
  DatasetBuilder builder(cfg, shard);
  run_fleet(cfg, shard, builder);
  std::filesystem::create_directories("test_fleet_partial_cache");
  ASSERT_TRUE(builder.take().save(cache));

  const DatasetView& view = shared_view(cfg, cache);
  EXPECT_TRUE(view.shard().full_range());
  const std::size_t windows =
      static_cast<std::size_t>(2 * cfg.racks_per_region) *
      static_cast<std::size_t>(cfg.hours);
  EXPECT_EQ(view.window_end() - view.window_begin(), windows);
  std::filesystem::remove_all("test_fleet_partial_cache");
}

TEST(FleetParallel, SharedDatasetRacedFirstCallersReturnOneInstance) {
  ScopedNoEnvThreads no_env;
  const std::string cache = "test_fleet_parallel_cache/ds.bin";
  std::filesystem::remove_all("test_fleet_parallel_cache");
  FleetConfig cfg = fabric_day();
  cfg.seed = 99177;  // unique fingerprint: forces a fresh generation
  cfg.threads = 2;
  std::vector<const DatasetView*> seen(4, nullptr);
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    callers.emplace_back([&, t] { seen[t] = &shared_view(cfg, cache); });
  }
  for (auto& th : callers) th.join();
  for (const DatasetView* p : seen) {
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p, seen[0]);  // one generation, one shared instance
  }
  EXPECT_EQ(seen[0]->fingerprint(), cfg.fingerprint());
  // The cache landed via atomic rename: the final file parses, and no
  // temp file is left behind.
  DatasetView from_disk;
  const auto st = Dataset::open_mapped(cache, &from_disk);
  ASSERT_TRUE(st) << st.to_string();
  EXPECT_EQ(from_disk.fingerprint(), cfg.fingerprint());
  from_disk.close();
  EXPECT_FALSE(std::filesystem::exists(cache + ".tmp"));
  std::filesystem::remove_all("test_fleet_parallel_cache");
}

}  // namespace
}  // namespace msamp::fleet
