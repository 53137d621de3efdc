// SpillSink is the disk-backed WindowSink every generation command writes
// through.  The load-bearing property is byte identity: the file it
// assembles must be exactly what the in-memory reference, DatasetBuilder
// + Dataset::save, would have produced, for full, partial, and empty
// shards, at any chunk size.  A column reaches the disk only when it
// overflows its buffer.  The lifecycle tests pin the crash-safety
// contract worker retries rely on: windows out of order or an
// early/double finalize throw, and a sink destroyed without finalize
// leaves no output file and no spill temps behind.
#include "fleet/spill_sink.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "fleet/fleet_runner.h"
#include "fleet/shard.h"

namespace msamp::fleet {
namespace {

namespace fs = std::filesystem;

FleetConfig tiny_config() {
  FleetConfig config;
  config.racks_per_region = 2;
  config.hours = 2;
  config.samples_per_run = 120;
  config.threads = 2;
  return config;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::current_path() / ("spill_test_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::size_t spill_temps(const fs::path& dir) {
  std::size_t n = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    n += e.path().filename().string().find(".spill-") != std::string::npos;
  }
  return n;
}

// A window of `n` default server runs: at 64-byte chunks it overflows
// every server-run column, so each one spills.
WindowRecords server_runs_window(std::size_t n) {
  WindowRecords records;
  records.server_runs.resize(n);
  return records;
}

// Generates `shard` through both sinks and returns (builder bytes,
// spill bytes) for comparison.
std::pair<std::string, std::string> both_paths(const FleetConfig& config,
                                               ShardSpec shard,
                                               const fs::path& dir,
                                               std::size_t chunk_bytes) {
  const fs::path via_builder = dir / "builder.bin";
  const fs::path via_spill = dir / "spill.bin";

  DatasetBuilder builder(config, shard);
  run_fleet(config, shard, builder);
  EXPECT_TRUE(builder.take().save(via_builder.string()));

  SpillSink sink(config, shard, via_spill.string(), chunk_bytes);
  run_fleet(config, shard, sink);
  const auto st = sink.finalize();
  EXPECT_TRUE(st) << st.to_string();

  return {file_bytes(via_builder), file_bytes(via_spill)};
}

TEST(SpillSink, FullDayMatchesDatasetBuilderBytes) {
  const fs::path dir = fresh_dir("full");
  const auto [builder, spill] = both_paths(tiny_config(), ShardSpec{}, dir,
                                           SpillSink::kDefaultChunkBytes);
  EXPECT_FALSE(builder.empty());
  EXPECT_EQ(builder, spill);
  fs::remove_all(dir);
}

TEST(SpillSink, PartialShardsMatchAtTinyChunkSize) {
  // chunk_bytes far below one window's records forces mid-shard flushes
  // on every spill file; the bytes must not depend on flush boundaries.
  const FleetConfig config = tiny_config();
  const fs::path dir = fresh_dir("partial");
  for (std::uint32_t i = 0; i < 3; ++i) {
    const auto [builder, spill] =
        both_paths(config, ShardSpec{i, 3}, dir, /*chunk_bytes=*/64);
    EXPECT_EQ(builder, spill) << "shard " << i << "/3";
  }
  fs::remove_all(dir);
}

TEST(SpillSink, EmptyShardMatches) {
  // 8 windows over 16 shards: shard 0 owns [0, 0) — no windows at all —
  // yet must still produce a well-formed (mergeable) shard file.
  const fs::path dir = fresh_dir("empty");
  const auto [builder, spill] = both_paths(tiny_config(), ShardSpec{0, 16},
                                           dir, SpillSink::kDefaultChunkBytes);
  EXPECT_EQ(builder, spill);
  fs::remove_all(dir);
}

TEST(SpillSink, ColumnsThatNeverOverflowCreateNoSpillFile) {
  // At the default chunk size no column of the tiny day overflows, so
  // nothing reaches the disk before finalize; a zero-window shard (0/16
  // of 8 windows) never creates a spill file either.  At 64-byte chunks
  // the same day does spill, and finalize removes the temps; a sink that
  // spilled and is destroyed without finalize removes them too and
  // writes no output.
  const FleetConfig config = tiny_config();
  const fs::path dir = fresh_dir("lazy");
  const fs::path out = dir / "out.bin";
  for (const ShardSpec shard : {ShardSpec{}, ShardSpec{0, 16}}) {
    SpillSink sink(config, shard, out.string());
    run_fleet(config, shard, sink);
    EXPECT_EQ(spill_temps(dir), 0u) << "shard " << shard.index;
    ASSERT_TRUE(sink.finalize());
    EXPECT_EQ(spill_temps(dir), 0u);
  }
  SpillSink spilling(config, ShardSpec{}, out.string(), /*chunk_bytes=*/64);
  run_fleet(config, ShardSpec{}, spilling);
  EXPECT_GT(spill_temps(dir), 0u);
  ASSERT_TRUE(spilling.finalize());
  EXPECT_EQ(spill_temps(dir), 0u);

  const fs::path abandoned = dir / "abandoned.bin";
  {
    SpillSink sink(config, ShardSpec{}, abandoned.string(),
                   /*chunk_bytes=*/64);
    sink.on_window(0, server_runs_window(100));
    EXPECT_GT(spill_temps(dir), 0u);
  }
  EXPECT_EQ(spill_temps(dir), 0u);
  EXPECT_FALSE(fs::exists(abandoned));
  fs::remove_all(dir);
}

TEST(SpillSink, RejectsInvalidShard) {
  const fs::path dir = fresh_dir("invalid");
  EXPECT_THROW(
      SpillSink(tiny_config(), ShardSpec{3, 2}, (dir / "out.bin").string()),
      std::invalid_argument);
  fs::remove_all(dir);
}

TEST(SpillSink, OutOfOrderWindowThrows) {
  const fs::path dir = fresh_dir("order");
  SpillSink sink(tiny_config(), ShardSpec{}, (dir / "out.bin").string());
  EXPECT_THROW(sink.on_window(1, WindowRecords{}), std::logic_error);
  fs::remove_all(dir);
}

TEST(SpillSink, FinalizeBeforeRangeCompleteThrows) {
  const fs::path dir = fresh_dir("early");
  SpillSink sink(tiny_config(), ShardSpec{}, (dir / "out.bin").string());
  sink.on_window(0, WindowRecords{});
  EXPECT_THROW(sink.finalize(), std::logic_error);
  fs::remove_all(dir);
}

TEST(SpillSink, DoubleFinalizeThrows) {
  // One rack, one hour: two canonical windows, fed by hand (empty
  // records are legal — a window need not have a run).
  FleetConfig config = tiny_config();
  config.racks_per_region = 1;
  config.hours = 1;
  const fs::path dir = fresh_dir("double");
  SpillSink sink(config, ShardSpec{}, (dir / "out.bin").string());
  sink.on_window(0, WindowRecords{});
  sink.on_window(1, WindowRecords{});
  ASSERT_TRUE(sink.finalize());
  EXPECT_THROW(sink.finalize(), std::logic_error);
  fs::remove_all(dir);
}

TEST(SpillSink, AbandonedSinkLeavesNoOutputAndNoSpillTemps) {
  // A worker killed mid-shard destroys (or simply never finalizes) its
  // sink: the output path must not exist, and the destructor removes the
  // spill temps so a retry starts from a clean slate either way.
  const fs::path dir = fresh_dir("abandon");
  const fs::path out = dir / "out.bin";
  {
    SpillSink sink(tiny_config(), ShardSpec{}, out.string(),
                   /*chunk_bytes=*/64);
    sink.on_window(0, WindowRecords{});
    sink.on_window(1, WindowRecords{});
  }
  EXPECT_FALSE(fs::exists(out));
  EXPECT_FALSE(fs::exists(dir / "out.bin.tmp"));
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

TEST(SpillSink, FinalizedRunRemovesSpillTempsAndLeavesOnlyTheOutput) {
  FleetConfig config = tiny_config();
  config.racks_per_region = 1;
  config.hours = 1;
  const fs::path dir = fresh_dir("clean");
  const fs::path out = dir / "out.bin";
  {
    SpillSink sink(config, ShardSpec{}, out.string());
    sink.on_window(0, WindowRecords{});
    sink.on_window(1, WindowRecords{});
    ASSERT_TRUE(sink.finalize());
  }
  EXPECT_TRUE(fs::exists(out));
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);  // only out.bin — no .tmp, no .spill-*
  fs::remove_all(dir);
}

TEST(SpillSink, VanishedSpillFileFailsFinalizeInsteadOfThrowing) {
  // Fault injection for the assemble step: between the last on_window and
  // finalize, one spill temp is replaced by a directory, so both the
  // ifstream read and (crucially) std::filesystem::file_size on it fail.
  // finalize must funnel that into a false return with a reason — never
  // let filesystem_error unwind through the worker.  64-byte chunks and
  // 100 server runs make the server-run columns spill, so the temp exists.
  FleetConfig config = tiny_config();
  config.racks_per_region = 1;
  config.hours = 1;
  const fs::path dir = fresh_dir("vanish");
  const fs::path out = dir / "out.bin";
  SpillSink sink(config, ShardSpec{}, out.string(), /*chunk_bytes=*/64);
  sink.on_window(0, server_runs_window(100));
  sink.on_window(1, WindowRecords{});

  const fs::path servers_spill = dir / "out.bin.spill-servers-c0";
  fs::remove(servers_spill);
  fs::create_directory(servers_spill);  // file_size on this sets error_code

  util::Status st;
  EXPECT_NO_THROW(st = sink.finalize());
  EXPECT_FALSE(st);
  EXPECT_FALSE(st.to_string().empty());
  EXPECT_FALSE(fs::exists(out));
  EXPECT_FALSE(fs::exists(dir / "out.bin.tmp"));  // tmp cleaned up
  fs::remove_all(dir);
}

TEST(SpillSink, TruncatesSpillTempsLeftByAKilledAttempt) {
  // Retry idempotence: garbage spill temps from a previous attempt must
  // not leak into the next attempt's bytes — neither when the column
  // never spills (the stale file is never read) nor when it does (the
  // stale file is reopened with trunc).
  FleetConfig config = tiny_config();
  config.racks_per_region = 1;
  config.hours = 1;
  const fs::path dir = fresh_dir("retry");
  const fs::path out = dir / "out.bin";
  for (const std::size_t runs : {std::size_t{0}, std::size_t{100}}) {
    std::ofstream(dir / "out.bin.spill-servers-c0")
        << "stale garbage from attempt 0";

    std::string clean_bytes;
    {
      const fs::path ref = dir / "ref.bin";
      DatasetBuilder builder(config, ShardSpec{});
      builder.on_window(0, server_runs_window(runs));
      builder.on_window(1, WindowRecords{});
      ASSERT_TRUE(builder.take().save(ref.string()));
      clean_bytes = file_bytes(ref);
      fs::remove(ref);
    }

    SpillSink sink(config, ShardSpec{}, out.string(),
                   runs == 0 ? SpillSink::kDefaultChunkBytes : 64);
    sink.on_window(0, server_runs_window(runs));
    sink.on_window(1, WindowRecords{});
    ASSERT_TRUE(sink.finalize());
    EXPECT_EQ(file_bytes(out), clean_bytes) << runs << " server runs";
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace msamp::fleet
