// Tests for the sharded generation API: ShardSpec partition math, the
// WindowSink streaming contract, and merge_shards validation + the
// byte-identity guarantee (merged shard files == single-process run).
#include "fleet/shard.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/fleet_runner.h"
#include "fleet/merge.h"

namespace msamp::fleet {
namespace {

namespace fs = std::filesystem;

// Small enough for unit tests, big enough that uneven shard splits and
// both regions' racks are exercised (2 regions x 3 racks x 2 hours = 12
// windows).
FleetConfig tiny_config() {
  FleetConfig cfg;
  cfg.racks_per_region = 3;
  cfg.servers_per_rack = 12;
  cfg.hours = 2;
  cfg.samples_per_run = 60;
  cfg.warmup_ms = 5;
  cfg.threads = 2;
  return cfg;
}

std::size_t total_windows(const FleetConfig& cfg) {
  return static_cast<std::size_t>(2) * cfg.racks_per_region * cfg.hours;
}

TEST(Shard, SpecValidity) {
  EXPECT_TRUE((ShardSpec{0, 1}).valid());
  EXPECT_TRUE((ShardSpec{2, 3}).valid());
  EXPECT_FALSE((ShardSpec{0, 0}).valid());
  EXPECT_FALSE((ShardSpec{3, 3}).valid());
  EXPECT_TRUE((ShardSpec{0, 1}).full_range());
  EXPECT_FALSE((ShardSpec{0, 2}).full_range());
}

TEST(Shard, FullRangeSpecCoversEverything) {
  const ShardSpec whole{0, 1};
  EXPECT_EQ(whole.begin(12), 0u);
  EXPECT_EQ(whole.end(12), 12u);
  EXPECT_EQ(whole.begin(0), 0u);
  EXPECT_EQ(whole.end(0), 0u);
}

TEST(Shard, PartitionCoversEveryWindowExactlyOnce) {
  // For a range of totals and shard counts — including counts larger than
  // the window count, which must yield empty trailing shards — the slices
  // tile [0, total) contiguously with balanced sizes.
  for (std::size_t total : {0u, 1u, 5u, 12u, 96u, 97u}) {
    for (std::uint32_t count : {1u, 2u, 3u, 5u, 7u, 16u, 100u}) {
      std::size_t expect_begin = 0;
      for (std::uint32_t i = 0; i < count; ++i) {
        const ShardSpec s{i, count};
        ASSERT_TRUE(s.valid());
        ASSERT_EQ(s.begin(total), expect_begin)
            << "total=" << total << " shard=" << i << "/" << count;
        ASSERT_GE(s.end(total), s.begin(total));
        // Balanced: no shard differs from the ideal by a full window.
        const std::size_t size = s.end(total) - s.begin(total);
        ASSERT_LE(size, total / count + 1);
        expect_begin = s.end(total);
      }
      ASSERT_EQ(expect_begin, total) << "total=" << total << " n=" << count;
    }
  }
}

TEST(Shard, RunnerRejectsInvalidSpec) {
  const FleetConfig cfg = tiny_config();
  DatasetBuilder sink(cfg);
  EXPECT_THROW(run_fleet(cfg, ShardSpec{0, 0}, sink), std::invalid_argument);
  EXPECT_THROW(run_fleet(cfg, ShardSpec{5, 5}, sink), std::invalid_argument);
  EXPECT_THROW(DatasetBuilder(cfg, ShardSpec{2, 2}), std::invalid_argument);
}

// Sink that records the window indices it was handed, to check the
// streaming contract directly (canonical order, exact slice coverage).
class RecordingSink : public WindowSink {
 public:
  void on_window(std::size_t window, WindowRecords&& records) override {
    windows.push_back(window);
    runs += records.has_run ? 1 : 0;
  }
  std::vector<std::size_t> windows;
  int runs = 0;
};

TEST(Shard, SinkReceivesCanonicalOrderSlice) {
  const FleetConfig cfg = tiny_config();
  const ShardSpec shard{1, 3};
  RecordingSink sink;
  std::vector<double> fractions;
  run_fleet(cfg, shard, sink,
            [&](double f) { fractions.push_back(f); });

  const std::size_t total = total_windows(cfg);
  ASSERT_EQ(sink.windows.size(), shard.end(total) - shard.begin(total));
  for (std::size_t i = 0; i < sink.windows.size(); ++i) {
    EXPECT_EQ(sink.windows[i], shard.begin(total) + i);
  }
  // Progress is strictly increasing and ends at exactly 1.0.
  ASSERT_FALSE(fractions.empty());
  for (std::size_t i = 1; i < fractions.size(); ++i) {
    EXPECT_GT(fractions[i], fractions[i - 1]);
  }
  EXPECT_DOUBLE_EQ(fractions.back(), 1.0);
}

TEST(Shard, EmptyShardStillReportsCompletion) {
  // More shards than windows: the trailing shards own empty slices but
  // must still drive progress to 1.0 and produce a valid (empty) dataset.
  FleetConfig cfg = tiny_config();
  cfg.hours = 1;
  const std::size_t total = total_windows(cfg);  // 6 windows
  const ShardSpec shard{50, 100};
  ASSERT_EQ(shard.begin(total), shard.end(total));

  DatasetBuilder builder(cfg, shard);
  std::vector<double> fractions;
  run_fleet(cfg, shard, builder,
            [&](double f) { fractions.push_back(f); });
  ASSERT_EQ(fractions.size(), 1u);
  EXPECT_DOUBLE_EQ(fractions.back(), 1.0);

  const Dataset ds = builder.take();
  EXPECT_EQ(ds.window_begin, ds.window_end);
  EXPECT_TRUE(ds.window_counts.empty());
  EXPECT_TRUE(ds.rack_runs.empty());
  // The rack table is still carried in full.
  EXPECT_EQ(ds.racks.size(), total_windows(cfg) / cfg.hours);
}

TEST(Shard, BuilderRejectsOutOfOrderWindows) {
  const FleetConfig cfg = tiny_config();
  DatasetBuilder builder(cfg, ShardSpec{0, 1});
  builder.on_window(0, WindowRecords{});
  EXPECT_THROW(builder.on_window(2, WindowRecords{}), std::logic_error);
  DatasetBuilder incomplete(cfg, ShardSpec{0, 1});
  EXPECT_THROW(incomplete.take(), std::logic_error);
}

// Generates the given shard of `cfg` into a Dataset.
Dataset make_shard(const FleetConfig& cfg, std::uint32_t index,
                   std::uint32_t count) {
  DatasetBuilder builder(cfg, ShardSpec{index, count});
  run_fleet(cfg, ShardSpec{index, count}, builder);
  return builder.take();
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::current_path() / ("merge_test_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Saves all `count` shards of `cfg` under `dir`; returns their paths.
std::vector<std::string> save_shards(const FleetConfig& cfg,
                                     std::uint32_t count,
                                     const fs::path& dir) {
  std::vector<std::string> paths;
  for (std::uint32_t i = 0; i < count; ++i) {
    paths.push_back((dir / ("shard" + std::to_string(i) + ".bin")).string());
    EXPECT_TRUE(make_shard(cfg, i, count).save(paths.back()));
  }
  return paths;
}

std::vector<std::uint8_t> file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// Merges `paths` into `dir`/merged.bin and expects the result to equal
// the single-process run of `cfg` byte for byte.
void expect_merges_to_whole_day(const FleetConfig& cfg,
                                const std::vector<std::string>& paths,
                                const fs::path& dir) {
  const fs::path out = dir / "merged.bin";
  const util::Status st = merge_shards(paths, out.string());
  ASSERT_TRUE(st) << st.to_string();
  EXPECT_EQ(file_bytes(out), run_fleet(cfg).serialize());
}

// Merges `paths` into `dir`/merged.bin, expects a rejection, and returns
// its message.  A rejected merge leaves no output and no temp file.
std::string expect_rejected(const std::vector<std::string>& paths,
                            const fs::path& dir) {
  const fs::path out = dir / "merged.bin";
  const util::Status st = merge_shards(paths, out.string());
  EXPECT_FALSE(st);
  EXPECT_FALSE(st.to_string().empty());
  EXPECT_FALSE(fs::exists(out));
  EXPECT_FALSE(fs::exists(dir / "merged.bin.tmp"));
  return st.to_string();
}

TEST(Merge, ThreeShardsByteIdenticalToWholeRun) {
  const FleetConfig cfg = tiny_config();
  const fs::path dir = fresh_dir("three");
  expect_merges_to_whole_day(cfg, save_shards(cfg, 3, dir), dir);
  fs::remove_all(dir);
}

TEST(Merge, ShardOrderDoesNotMatter) {
  const FleetConfig cfg = tiny_config();
  const fs::path dir = fresh_dir("order");
  std::vector<std::string> paths = save_shards(cfg, 3, dir);
  std::swap(paths[0], paths[2]);
  expect_merges_to_whole_day(cfg, paths, dir);
  fs::remove_all(dir);
}

TEST(Merge, SingleFullShardMerges) {
  const FleetConfig cfg = tiny_config();
  const fs::path dir = fresh_dir("single");
  expect_merges_to_whole_day(cfg, save_shards(cfg, 1, dir), dir);
  fs::remove_all(dir);
}

TEST(Merge, MoreShardsThanWindowsStillMerges) {
  // 12 windows split 16 ways -> several empty shards; the fold must
  // still reproduce the single-run bytes.
  const FleetConfig cfg = tiny_config();
  const fs::path dir = fresh_dir("sixteen");
  expect_merges_to_whole_day(cfg, save_shards(cfg, 16, dir), dir);
  fs::remove_all(dir);
}

TEST(Merge, RejectsMissingShard) {
  const FleetConfig cfg = tiny_config();
  const fs::path dir = fresh_dir("missing");
  std::vector<std::string> paths = save_shards(cfg, 3, dir);
  paths.pop_back();
  expect_rejected(paths, dir);
  fs::remove_all(dir);
}

TEST(Merge, RejectsDuplicateShard) {
  const FleetConfig cfg = tiny_config();
  const fs::path dir = fresh_dir("duplicate");
  std::vector<std::string> paths = save_shards(cfg, 3, dir);
  paths[2] = paths[1];  // two copies of shard 1, none of shard 2
  expect_rejected(paths, dir);
  fs::remove_all(dir);
}

TEST(Merge, RejectsMismatchedFingerprint) {
  const FleetConfig cfg = tiny_config();
  FleetConfig other = cfg;
  other.seed = 43;
  const fs::path dir = fresh_dir("fingerprint");
  const std::vector<std::string> paths = save_shards(cfg, 2, dir);
  ASSERT_TRUE(make_shard(other, 1, 2).save(paths[1]));
  const std::string error = expect_rejected(paths, dir);
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
  fs::remove_all(dir);
}

TEST(Merge, RejectsMismatchedShardCount) {
  const FleetConfig cfg = tiny_config();
  const fs::path dir = fresh_dir("count");
  const std::vector<std::string> paths = save_shards(cfg, 2, dir);
  ASSERT_TRUE(make_shard(cfg, 1, 3).save(paths[1]));  // claims a 3-way split
  expect_rejected(paths, dir);
  fs::remove_all(dir);
}

TEST(Merge, RejectsTamperedCountTable) {
  const FleetConfig cfg = tiny_config();
  const fs::path dir = fresh_dir("tampered");
  const std::vector<std::string> paths = save_shards(cfg, 2, dir);
  // Drop a record without touching the count table: sums disagree.
  Dataset shard = make_shard(cfg, 0, 2);
  ASSERT_FALSE(shard.rack_runs.empty());
  shard.rack_runs.pop_back();
  ASSERT_TRUE(shard.save(paths[0]));
  expect_rejected(paths, dir);
  fs::remove_all(dir);
}

TEST(Merge, RejectsEmptyInput) {
  const fs::path dir = fresh_dir("empty");
  expect_rejected({}, dir);
  fs::remove_all(dir);
}

TEST(Merge, TruncatedShardFileFailsToLoad) {
  // A truncated shard file must fail the merge, naming that shard and the
  // size mismatch, before anything is written.
  const FleetConfig cfg = tiny_config();
  const fs::path dir = fresh_dir("truncated");
  const std::vector<std::string> paths = save_shards(cfg, 2, dir);
  const auto full_size = fs::file_size(paths[0]);
  fs::resize_file(paths[0], full_size - 7);
  const std::string error = expect_rejected(paths, dir);
  EXPECT_NE(error.find(paths[0] + ": "), std::string::npos) << error;
  EXPECT_NE(error.find("file is " + std::to_string(full_size - 7) +
                       " bytes, layout needs " + std::to_string(full_size)),
            std::string::npos)
      << error;
  fs::remove_all(dir);
}

}  // namespace
}  // namespace msamp::fleet
