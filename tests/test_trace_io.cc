// Tests for the sync-trace CSV import/export.
#include "analysis/trace_io.h"

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string_view>

#include <gtest/gtest.h>

#include "analysis/contention.h"
#include "fleet/fluid_rack.h"

namespace msamp::analysis {
namespace {

core::SyncRun sample_run() {
  core::SyncRun run;
  run.grid_start = 7 * sim::kMillisecond;
  run.interval = sim::kMillisecond;
  run.hosts = {0, 1, 2};
  run.series.assign(3, std::vector<core::BucketSample>(5));
  run.series[0][1].in_bytes = 1000000;
  run.series[0][1].connections = 12.5;
  run.series[0][3].in_bytes = 1500000;
  run.series[0][3].in_retx_bytes = 4000;
  run.series[1][2].out_bytes = 777;
  run.series[1][2].in_ecn_bytes = 0;
  // server 2 stays all-zero (idle)
  return run;
}

TEST(TraceIo, RoundTrip) {
  const core::SyncRun run = sample_run();
  std::stringstream ss;
  write_sync_trace(run, ss);
  const auto back = read_sync_trace(ss);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->grid_start, run.grid_start);
  EXPECT_EQ(back->interval, run.interval);
  ASSERT_EQ(back->num_servers(), 3u);
  ASSERT_EQ(back->num_samples(), 5u);
  EXPECT_EQ(back->series[0][1].in_bytes, 1000000);
  EXPECT_NEAR(back->series[0][1].connections, 12.5, 1e-3);
  EXPECT_EQ(back->series[0][3].in_retx_bytes, 4000);
  EXPECT_EQ(back->series[1][2].out_bytes, 777);
  // Idle server reconstructed as all-zero.
  for (const auto& s : back->series[2]) EXPECT_EQ(s.in_bytes, 0);
}

TEST(TraceIo, SparseEncodingSkipsZeros) {
  std::stringstream ss;
  write_sync_trace(sample_run(), ss);
  const std::string text = ss.str();
  // 2 header lines + 3 data rows for server 0/1 + 1 anchor each for
  // servers 1 and 2 (last sample).  Count lines.
  int lines = 0;
  for (char c : text) lines += c == '\n';
  EXPECT_LE(lines, 9);
}

TEST(TraceIo, RejectsMalformed) {
  auto parse = [](const std::string& text) {
    std::stringstream ss(text);
    return read_sync_trace(ss).has_value();
  };
  EXPECT_FALSE(parse(""));
  EXPECT_FALSE(parse("garbage\n"));
  EXPECT_FALSE(parse("# msamp-sync-trace v1\nwrong_columns\n"));
  EXPECT_FALSE(parse("# msamp-sync-trace v1 interval_ns=0 grid_start_ns=0\n"));
  // Each header value ends at a space or the end of the line.
  const auto with_header = [](const char* attributes) {
    return std::string("# msamp-sync-trace v1 ") + attributes +
           "\nserver,sample,in_bytes,in_retx_bytes,out_bytes,out_retx_bytes,"
           "in_ecn_bytes,connections\n0,0,1,0,0,0,0,1.0\n";
  };
  EXPECT_TRUE(parse(with_header("grid_start_ns=-5 interval_ns=100000")));
  for (const char* attributes :
       {"interval_ns=1000000abc grid_start_ns=0",
        "interval_ns=1000000 grid_start_ns=-5x",
        "interval_ns=1000000,grid_start_ns=0",
        "interval_ns= grid_start_ns=0"}) {
    EXPECT_FALSE(parse(with_header(attributes))) << attributes;
  }
  // Valid header, corrupt row.
  std::stringstream good;
  write_sync_trace(sample_run(), good);
  std::string text = good.str();
  EXPECT_FALSE(parse(text + "not,a,row\n"));
  // Server-id gap (0 then 5).
  std::stringstream gap;
  gap << "# msamp-sync-trace v1 interval_ns=1000000 grid_start_ns=0\n"
      << "server,sample,in_bytes,in_retx_bytes,out_bytes,out_retx_bytes,"
         "in_ecn_bytes,connections\n"
      << "0,0,1,0,0,0,0,0.0\n"
      << "5,0,1,0,0,0,0,0.0\n";
  EXPECT_FALSE(read_sync_trace(gap).has_value());
}

constexpr const char* kTraceHead =
    "# msamp-sync-trace v1 interval_ns=1000000 grid_start_ns=0\n"
    "server,sample,in_bytes,in_retx_bytes,out_bytes,out_retx_bytes,"
    "in_ecn_bytes,connections\n";

TEST(TraceIo, RejectsNonFiniteConnections) {
  // std::stod reads these, and NaN passes a `< 0` check.
  for (const char* conns : {"nan", "inf", "-inf", "infinity"}) {
    std::stringstream ss;
    ss << kTraceHead << "0,0,1,0,0,0,0,2.0\n"
       << "0,1,1,0,0,0,0," << conns << "\n";
    EXPECT_FALSE(read_sync_trace(ss).has_value()) << conns;
  }
}

TEST(TraceIo, RejectsRowsOfTheWrongShape) {
  // Two rows of a 2-server x 4-sample trace that read as plausible
  // numbers unless every field is held to its comma.
  auto trace = [](const char* row) {
    std::stringstream ss;
    ss << kTraceHead << "0,0,1000000,0,0,0,0,4.000\n" << row << "\n"
       << "0,3,1000000,0,0,0,0,4.000\n1,3,1000000,0,0,0,0,4.000\n";
    return read_sync_trace(ss);
  };
  ASSERT_TRUE(trace("0,1,1000000,0,0,0,0,4.000").has_value());
  // A newline turned into a digit merges two rows: sample 2 would vanish.
  EXPECT_FALSE(
      trace("0,1,1000000,0,0,0,0,4.0007,2,1000000,0,0,0,0,4.000").has_value());
  // A comma turned into a minus: in_bytes 1,000,000, in_retx_bytes -5.
  EXPECT_FALSE(trace("0,1,1000000-5,0,0,0,4.000").has_value());
  // Each integer field ends at exactly one comma, byte counters are never
  // negative, and nothing follows the connections.
  for (const char* row :
       {"0,1,1000000,0,0,0,0", "0,1,1000000,0,0,0,0,", "0,1,1000000,0,0,0,,4.0",
        "0,1,1000000,,0,0,0,0,4.0", "0,1,1000000 ,0,0,0,0,4.0",
        "0,1,-1,0,0,0,0,4.0", "0,1,1000000,0,0,0,-1,4.0", "0,1,0,0,-7,0,0,0",
        "0,1,1000000,0,0,0,0,4.0,", "0,1,1000000,0,0,0,0,4.0 ",
        "0,1,1000000,0,0,0,0,4.0x"}) {
    EXPECT_FALSE(trace(row).has_value()) << row;
  }
}

TEST(TraceIo, RejectsOneCellOverTheBudget) {
  // 5 servers x 838,861 samples is kMaxTraceCells + 1, though each axis
  // is under its own cap: the product is what gets allocated.
  static_assert(5 * std::size_t{838861} == kMaxTraceCells + 1);
  std::stringstream ss;
  ss << kTraceHead;
  for (int s = 0; s < 4; ++s) ss << s << ",0,1,0,0,0,0,1.0\n";
  ss << "4,838860,1,0,0,0,0,1.0\n";
  EXPECT_FALSE(read_sync_trace(ss).has_value());
}

TEST(TraceIo, RefusesAByteCounterOverTheBound) {
  // Two samples of 2^62 retransmitted bytes sum past 2^63: the bound keeps
  // every sum over a trace (at most 2^22 cells x 2^40) inside int64.
  static_assert(kMaxTraceBytes == std::int64_t{1} << 40);
  static_assert(kMaxTraceBytes <= std::numeric_limits<std::int64_t>::max() /
                                      std::int64_t{kMaxTraceCells});
  auto trace = [](std::size_t column, std::int64_t value) {
    std::int64_t bytes[5] = {0, 0, 0, 0, 0};
    bytes[column] = value;
    std::stringstream ss;
    ss << kTraceHead << "0,0," << bytes[0] << ',' << bytes[1] << ','
       << bytes[2] << ',' << bytes[3] << ',' << bytes[4] << ",1.0\n"
       << "0,1,1,0,0,0,0,1.0\n";
    return read_sync_trace(ss);
  };
  for (std::size_t column = 0; column < 5; ++column) {
    const auto at_bound = trace(column, kMaxTraceBytes);
    ASSERT_TRUE(at_bound.has_value()) << "column " << column;
    const core::BucketSample& b = at_bound->series[0][0];
    const std::int64_t read[5] = {b.in_bytes, b.in_retx_bytes, b.out_bytes,
                                  b.out_retx_bytes, b.in_ecn_bytes};
    EXPECT_EQ(read[column], kMaxTraceBytes) << "column " << column;
    EXPECT_FALSE(trace(column, kMaxTraceBytes + 1).has_value())
        << "column " << column;
  }
}

TEST(TraceIo, MutationsFailClosed) {
  // Seeded substitutions of digits, commas, minus signs and newlines into
  // a small real trace: size fields can grow, fields merge and lines
  // split.  Each mutant must parse into a run within the cell budget with
  // byte counters in [0, kMaxTraceBytes] and finite, non-negative
  // connections, or be rejected — never allocate past the budget, read out of bounds or
  // throw.  Run under the ASan/UBSan lane this is a real fuzz of the
  // reader's checks.
  workload::RackMeta rack;
  rack.rack_id = 1;
  rack.region = workload::RegionId::kRegA;
  rack.intensity = 1.5;
  rack.server_service.assign(3, 0);
  rack.server_kind.assign(3, workload::TaskKind::kCache);
  fleet::FleetConfig cfg;
  cfg.samples_per_run = 40;
  cfg.warmup_ms = 10;
  fleet::FluidRack fluid(rack, cfg, 6, util::Rng(5));
  std::stringstream trace;
  write_sync_trace(fluid.run().sync, trace);
  const std::string text = trace.str();

  constexpr std::string_view kAlphabet = "0123456789,-\n";
  util::Rng rng(2026);
  std::size_t accepted = 0;
  for (int i = 0; i < 4000; ++i) {
    std::string mutated = text;
    const auto edits = 1 + rng.uniform_int(3);
    for (std::uint64_t e = 0; e < edits; ++e) {
      mutated[rng.uniform_int(mutated.size())] =
          kAlphabet[rng.uniform_int(kAlphabet.size())];
    }
    std::stringstream ss(mutated);
    const auto run = read_sync_trace(ss);
    if (!run.has_value()) continue;
    ++accepted;
    ASSERT_LE(run->num_servers() * run->num_samples(), kMaxTraceCells);
    for (const auto& series : run->series) {
      ASSERT_EQ(series.size(), run->num_samples());
      for (const auto& b : series) {
        ASSERT_TRUE(std::isfinite(b.connections) && b.connections >= 0);
        for (const std::int64_t bytes :
             {b.in_bytes, b.in_retx_bytes, b.out_bytes, b.out_retx_bytes,
              b.in_ecn_bytes}) {
          ASSERT_TRUE(bytes >= 0 && bytes <= kMaxTraceBytes) << bytes;
        }
      }
    }
  }
  // Most single substitutions land in a number and keep the trace valid.
  EXPECT_GT(accepted, 0u);
}

TEST(TraceIo, EmptyTraceIsValid) {
  std::stringstream ss;
  ss << "# msamp-sync-trace v1 interval_ns=1000000 grid_start_ns=0\n"
     << "server,sample,in_bytes,in_retx_bytes,out_bytes,out_retx_bytes,"
        "in_ecn_bytes,connections\n";
  const auto run = read_sync_trace(ss);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->num_servers(), 0u);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = "test_trace_tmp/run.csv";
  ASSERT_TRUE(write_sync_trace_file(sample_run(), path));
  const auto back = read_sync_trace_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->num_servers(), 3u);
  std::filesystem::remove_all("test_trace_tmp");
}

TEST(TraceIo, MissingFileFails) {
  EXPECT_FALSE(read_sync_trace_file("no/such/file.csv").has_value());
}

TEST(TraceIo, FluidRunSurvivesExportImportAnalysis) {
  // The full path an external-data user takes: simulate, export, import,
  // analyze — contention results must be identical.
  workload::RackMeta rack;
  rack.rack_id = 1;
  rack.region = workload::RegionId::kRegA;
  rack.intensity = 1.5;
  rack.server_service.assign(12, 0);
  rack.server_kind.assign(12, workload::TaskKind::kCache);
  fleet::FleetConfig cfg;
  cfg.samples_per_run = 120;
  cfg.warmup_ms = 10;
  fleet::FluidRack fluid(rack, cfg, 6, util::Rng(5));
  const core::SyncRun original = fluid.run().sync;

  std::stringstream ss;
  write_sync_trace(original, ss);
  const auto imported = read_sync_trace(ss);
  ASSERT_TRUE(imported.has_value());

  const auto cfg_b = cfg.burst_config();
  const auto c1 = contention_series(original, cfg_b);
  const auto c2 = contention_series(*imported, cfg_b);
  EXPECT_EQ(c1, c2);
}

}  // namespace
}  // namespace msamp::analysis
