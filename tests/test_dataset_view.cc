// Tests for the zero-copy DatasetView read path: mmap lifecycle, hostile
// truncation/tamper input at the v6 segment boundaries, mapped-vs-loaded
// parity, per-window iteration, and fail-closed version checks.
#include "fleet/dataset_view.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/fleet_runner.h"
#include "fleet/spill_sink.h"
#include "fleet/wire.h"

namespace msamp::fleet {
namespace {

namespace fs = std::filesystem;

FleetConfig small_day() {
  FleetConfig cfg;
  cfg.racks_per_region = 2;
  cfg.servers_per_rack = 16;
  cfg.hours = 2;
  cfg.samples_per_run = 60;
  cfg.warmup_ms = 5;
  cfg.threads = 1;
  return cfg;
}

/// A real (small) generated day, shared across tests.
const Dataset& small_dataset() {
  static const Dataset ds = run_fleet(small_day());
  return ds;
}

const std::vector<std::uint8_t>& small_blob() {
  static const std::vector<std::uint8_t> blob = small_dataset().serialize();
  return blob;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::current_path() / ("view_test_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void write_file(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

TEST(DatasetView, MmapLifecycle) {
  const fs::path dir = fresh_dir("lifecycle");
  const fs::path path = dir / "ds.bin";
  ASSERT_TRUE(small_dataset().save(path.string()));

  DatasetView view;
  EXPECT_FALSE(view.ok());
  const auto st = DatasetView::open(path.string(), &view);
  ASSERT_TRUE(st) << st.to_string();
  EXPECT_TRUE(view.ok());
  EXPECT_EQ(view.path(), path.string());
  EXPECT_EQ(view.mapped_bytes(), fs::file_size(path));
  EXPECT_EQ(view.fingerprint(), small_dataset().fingerprint);

  // The mapping survives a move; the source is left empty.
  DatasetView moved = std::move(view);
  EXPECT_TRUE(moved.ok());
  EXPECT_FALSE(view.ok());
  EXPECT_EQ(moved.bursts().size(), small_dataset().bursts.size());

  // Unlinking the open file is fine on POSIX: the mapping holds the pages.
  fs::remove(path);
  EXPECT_EQ(moved.racks().size(), small_dataset().racks.size());

  moved.close();
  EXPECT_FALSE(moved.ok());
  moved.close();  // idempotent
  fs::remove_all(dir);
}

TEST(DatasetView, OpenMissingOrDirectoryFails) {
  DatasetView view;
  EXPECT_FALSE(DatasetView::open("does/not/exist.bin", &view));
  EXPECT_FALSE(view.ok());
  EXPECT_FALSE(DatasetView::open(".", &view));
  EXPECT_FALSE(view.ok());
}

TEST(DatasetView, MappedEqualsAttached) {
  // A file opened through mmap and the same bytes attached in memory
  // describe identical datasets.
  const fs::path dir = fresh_dir("parity");
  const fs::path path = dir / "ds.bin";
  write_file(path, small_blob());

  DatasetView mapped, attached;
  ASSERT_TRUE(DatasetView::open(path.string(), &mapped));
  ASSERT_TRUE(
      DatasetView::attach(small_blob().data(), small_blob().size(), &attached));
  const Dataset a = Dataset::from_view(mapped);
  const Dataset b = Dataset::from_view(attached);
  EXPECT_EQ(a.serialize(), b.serialize());
  EXPECT_EQ(a.serialize(), small_blob());
  mapped.close();
  fs::remove_all(dir);
}

/// A hand-built shard in which every field of every v6 section holds a
/// value its neighbours of the same width do not: a reordered or
/// mis-mapped column changes the blob's bytes or a named span's values.
Dataset layout_pin_dataset() {
  Dataset ds;
  ds.fingerprint = 0x0123456789abcdefULL;
  FleetConfig& c = ds.config;
  c.seed = 1001;
  c.racks_per_region = 1;
  c.servers_per_rack = 3;
  c.hours = 2;
  c.samples_per_run = 5;
  c.warmup_ms = 6;
  c.line_rate_gbps = 7.5;
  c.buffer.total_bytes = 1008;
  c.buffer.quadrants = 9;
  c.buffer.reserve_per_queue = 1010;
  c.buffer.alpha = 11.5;
  c.buffer.ecn_threshold = 1012;
  c.buffer.policy = net::BufferPolicy::kBurstAbsorbDt;
  c.buffer.burst_alpha_boost = 13.5;
  c.buffer.delay.target_delay_ms = 14.5;
  c.buffer.delay.min_gain = 15.5;
  c.buffer.delay.max_gain = 16.5;
  c.buffer.delay.drain_gbps = 17.5;
  c.rtt_ms = 18.5;
  c.mss = 1019;
  c.fabric.enabled = true;
  c.fabric.uplink_gbps = 20.5;
  c.fabric.smoothing = 0.215;
  c.filter_cpus = 22;
  c.clocks.offset_stddev = 1023;
  c.clocks.offset_max = 1024;
  c.loss.rtt_shift_samples = 25;
  c.loss.lag_samples = 26;
  c.classify.high_threshold = 27.5;
  // Shard 1 of 2 over a 2-rack x 2-hour day: canonical windows [2, 4).
  ds.shard = {1, 2};
  ds.window_begin = 2;
  ds.window_end = 4;
  ds.window_counts = {{/*has_run=*/1, /*server_runs=*/2, /*bursts=*/3},
                      {/*has_run=*/1, /*server_runs=*/1, /*bursts=*/1}};
  for (std::uint32_t i = 0; i < 2; ++i) {
    RackInfo r;
    r.rack_id = 10 + i;
    r.region = static_cast<std::uint8_t>(i);
    r.ml_dense = static_cast<std::uint8_t>(5 + i);
    r.distinct_tasks = static_cast<std::uint16_t>(40 + i);
    r.dominant_share = 1.25f + i;
    r.intensity = 2.5f + i;
    r.busy_hour_avg_contention = 3.75f + i;
    r.rack_class = static_cast<std::uint8_t>(1 + i);  // RegA-High, RegB
    ds.racks.push_back(r);
  }
  for (std::uint32_t i = 0; i < 2; ++i) {
    RackRunRecord r;
    r.rack_id = 50 + i;
    r.region = static_cast<std::uint8_t>(i);
    r.hour = static_cast<std::uint8_t>(7 + i);
    r.usable = static_cast<std::uint8_t>(1 - i);
    r.avg_contention = 5.5f + i;
    r.min_active_contention = static_cast<std::uint16_t>(60 + i);
    r.p90_contention = static_cast<std::uint16_t>(70 + i);
    r.max_contention = static_cast<std::uint16_t>(80 + i);
    r.in_bytes = 1e9 + i;
    r.drop_bytes = 2e5 + i;
    r.ecn_bytes = 3e4 + i;
    ds.rack_runs.push_back(r);
  }
  for (std::uint32_t i = 0; i < 3; ++i) {
    ServerRunRecord s;
    s.rack_id = 90 + i;
    s.region = static_cast<std::uint8_t>(i / 2);
    s.hour = static_cast<std::uint8_t>(9 + i);
    s.bursty = static_cast<std::uint8_t>(i % 2);
    s.avg_util = 0.125f + i;
    s.util_inside = 0.25f + i;
    s.util_outside = 0.375f + i;
    s.bursts_per_sec = 0.5f + i;
    s.conns_inside = 0.625f + i;
    s.conns_outside = 0.75f + i;
    ds.server_runs.push_back(s);
  }
  for (std::uint32_t i = 0; i < 4; ++i) {
    BurstRecord b;
    b.rack_id = 100 + i;
    b.region = static_cast<std::uint8_t>(i / 2);
    b.hour = static_cast<std::uint8_t>(12 + i);
    b.len_ms = static_cast<std::uint16_t>(2 + i);
    b.volume_bytes = 1500.5f + i;
    b.max_contention = static_cast<std::uint16_t>(20 + i);
    b.avg_conns = 3.25f + i;
    b.contended = static_cast<std::uint8_t>(i % 2);
    b.lossy = static_cast<std::uint8_t>(i / 3);
    ds.bursts.push_back(b);
  }
  ds.low_contention_example = {200, 1.5f, 2, 3, {1, 0, 0, 0, 1, 1}, {4, 5, 6}};
  ds.high_contention_example = {201, 9.5f, 1, 2, {1, 0}, {7, 8}};
  return ds;
}

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

TEST(DatasetView, ColumnsMatchTheRowRecords) {
  // Pins the v6 layout: every record column and window-directory column
  // is read back through its named span, and the blob's digest is fixed,
  // so a column that moves in the file fails here.
  const Dataset ds = layout_pin_dataset();
  const std::vector<std::uint8_t> blob = ds.serialize();
  EXPECT_EQ(fnv1a64(blob), 0x7259a96bdcf80780ULL)
      << std::hex << fnv1a64(blob);
  DatasetView view;
  ASSERT_TRUE(DatasetView::attach(blob.data(), blob.size(), &view));
  EXPECT_EQ(view.fingerprint(), ds.fingerprint);
  EXPECT_EQ(view.config().fingerprint(), ds.config.fingerprint());
  EXPECT_EQ(view.shard().index, 1u);
  EXPECT_EQ(view.shard().count, 2u);
  EXPECT_EQ(Dataset::from_view(view).serialize(), blob);

  const WindowDirColumns& w = view.windows();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w.has_run[0], 1);
  EXPECT_EQ(w.has_run[1], 1);
  EXPECT_EQ(w.server_runs[0], 2u);
  EXPECT_EQ(w.server_runs[1], 1u);
  EXPECT_EQ(w.bursts[0], 3u);
  EXPECT_EQ(w.bursts[1], 1u);
  EXPECT_EQ(w.run_off[0], 0u);
  EXPECT_EQ(w.run_off[1], 1u);
  EXPECT_EQ(w.server_off[0], 0u);
  EXPECT_EQ(w.server_off[1], 2u);
  EXPECT_EQ(w.burst_off[0], 0u);
  EXPECT_EQ(w.burst_off[1], 3u);

  const RackInfoColumns& racks = view.racks();
  ASSERT_EQ(racks.size(), ds.racks.size());
  for (std::size_t i = 0; i < ds.racks.size(); ++i) {
    const RackInfo& r = ds.racks[i];
    EXPECT_EQ(racks.rack_id[i], r.rack_id);
    EXPECT_EQ(racks.region[i], r.region);
    EXPECT_EQ(racks.ml_dense[i], r.ml_dense);
    EXPECT_EQ(racks.distinct_tasks[i], r.distinct_tasks);
    EXPECT_EQ(racks.dominant_share[i], r.dominant_share);
    EXPECT_EQ(racks.intensity[i], r.intensity);
    EXPECT_EQ(racks.busy_hour_avg_contention[i], r.busy_hour_avg_contention);
    EXPECT_EQ(racks.rack_class[i], r.rack_class);
    EXPECT_EQ(view.class_of(r.rack_id), ds.class_of(r.rack_id));
  }
  const RackRunColumns& runs = view.rack_runs();
  ASSERT_EQ(runs.size(), ds.rack_runs.size());
  for (std::size_t i = 0; i < ds.rack_runs.size(); ++i) {
    const RackRunRecord& r = ds.rack_runs[i];
    EXPECT_EQ(runs.rack_id[i], r.rack_id);
    EXPECT_EQ(runs.region[i], r.region);
    EXPECT_EQ(runs.hour[i], r.hour);
    EXPECT_EQ(runs.usable[i], r.usable);
    EXPECT_EQ(runs.avg_contention[i], r.avg_contention);
    EXPECT_EQ(runs.min_active_contention[i], r.min_active_contention);
    EXPECT_EQ(runs.p90_contention[i], r.p90_contention);
    EXPECT_EQ(runs.max_contention[i], r.max_contention);
    EXPECT_EQ(runs.in_bytes[i], r.in_bytes);
    EXPECT_EQ(runs.drop_bytes[i], r.drop_bytes);
    EXPECT_EQ(runs.ecn_bytes[i], r.ecn_bytes);
  }
  const ServerRunColumns& servers = view.server_runs();
  ASSERT_EQ(servers.size(), ds.server_runs.size());
  for (std::size_t i = 0; i < ds.server_runs.size(); ++i) {
    const ServerRunRecord& s = ds.server_runs[i];
    EXPECT_EQ(servers.rack_id[i], s.rack_id);
    EXPECT_EQ(servers.region[i], s.region);
    EXPECT_EQ(servers.hour[i], s.hour);
    EXPECT_EQ(servers.bursty[i], s.bursty);
    EXPECT_EQ(servers.avg_util[i], s.avg_util);
    EXPECT_EQ(servers.util_inside[i], s.util_inside);
    EXPECT_EQ(servers.util_outside[i], s.util_outside);
    EXPECT_EQ(servers.bursts_per_sec[i], s.bursts_per_sec);
    EXPECT_EQ(servers.conns_inside[i], s.conns_inside);
    EXPECT_EQ(servers.conns_outside[i], s.conns_outside);
  }
  const BurstColumns& bursts = view.bursts();
  ASSERT_EQ(bursts.size(), ds.bursts.size());
  for (std::size_t i = 0; i < ds.bursts.size(); ++i) {
    const BurstRecord& b = ds.bursts[i];
    EXPECT_EQ(bursts.rack_id[i], b.rack_id);
    EXPECT_EQ(bursts.region[i], b.region);
    EXPECT_EQ(bursts.hour[i], b.hour);
    EXPECT_EQ(bursts.len_ms[i], b.len_ms);
    EXPECT_EQ(bursts.volume_bytes[i], b.volume_bytes);
    EXPECT_EQ(bursts.max_contention[i], b.max_contention);
    EXPECT_EQ(bursts.avg_conns[i], b.avg_conns);
    EXPECT_EQ(bursts.contended[i], b.contended);
    EXPECT_EQ(bursts.lossy[i], b.lossy);
  }
  for (const auto& [got, want] :
       {std::pair{&view.low_contention_example(), &ds.low_contention_example},
        std::pair{&view.high_contention_example(),
                  &ds.high_contention_example}}) {
    EXPECT_EQ(got->rack_id, want->rack_id);
    EXPECT_EQ(got->avg_contention, want->avg_contention);
    EXPECT_EQ(got->num_servers, want->num_servers);
    EXPECT_EQ(got->num_samples, want->num_samples);
    EXPECT_EQ(got->raster, want->raster);
    EXPECT_EQ(got->contention, want->contention);
  }
}

TEST(DatasetView, RejectsTruncationAtEverySegmentBoundary) {
  // Cutting the file exactly at (and one byte around) each column's start
  // must always be rejected: the directory promises bytes that are gone.
  const auto& blob = small_blob();
  wire::V6Header h;
  wire::V6Layout lay;
  ASSERT_TRUE(
      wire::read_header_v6(blob.data(), blob.size(), blob.size(), &h, &lay));

  std::vector<std::uint64_t> cuts = {0, 1, lay.header_bytes - 1,
                                     lay.header_bytes, blob.size() - 1};
  for (const auto& cols : lay.columns) {
    for (std::uint64_t off : cols) {
      cuts.push_back(off - 1);
      cuts.push_back(off);
      cuts.push_back(off + 1);
    }
  }
  const fs::path dir = fresh_dir("truncate");
  const fs::path path = dir / "cut.bin";
  for (std::uint64_t cut : cuts) {
    ASSERT_LT(cut, blob.size());
    const std::vector<std::uint8_t> prefix(blob.begin(), blob.begin() + cut);
    DatasetView attached;
    EXPECT_FALSE(DatasetView::attach(prefix.data(), prefix.size(), &attached))
        << "cut=" << cut;
    write_file(path, prefix);
    DatasetView mapped;
    EXPECT_FALSE(DatasetView::open(path.string(), &mapped)) << "cut=" << cut;
  }
  // Trailing garbage past the layout end is rejected too.
  auto longer = blob;
  longer.push_back(0);
  DatasetView view;
  EXPECT_FALSE(DatasetView::attach(longer.data(), longer.size(), &view));
  fs::remove_all(dir);
}

TEST(DatasetView, HeaderAndDirectoryTamperNeverCrashes) {
  // Byte-level fuzz of everything the validator reads structurally: the
  // fixed header and the whole window-directory section.  Every mutation
  // must either fail cleanly or yield a self-consistent view.
  const auto& blob = small_blob();
  wire::V6Header h;
  wire::V6Layout lay;
  ASSERT_TRUE(
      wire::read_header_v6(blob.data(), blob.size(), blob.size(), &h, &lay));
  const std::uint64_t fuzz_end =
      lay.dir[wire::kSecWindows].offset + lay.dir[wire::kSecWindows].bytes;
  for (std::uint64_t i = 0; i < fuzz_end; ++i) {
    auto mutated = blob;
    mutated[static_cast<std::size_t>(i)] ^= 0xa5;
    DatasetView view;
    if (DatasetView::attach(mutated.data(), mutated.size(), &view)) {
      // Still-valid content change: the window directory must still sum
      // to the section counts.
      std::uint64_t bursts = 0;
      for (std::size_t w = 0; w < view.num_windows(); ++w) {
        bursts += view.windows().bursts[w];
      }
      EXPECT_EQ(bursts, view.bursts().size()) << "byte=" << i;
    }
  }
}

TEST(DatasetView, WindowSlicesTileTheColumns) {
  const Dataset& ds = small_dataset();
  DatasetView view;
  ASSERT_TRUE(
      DatasetView::attach(small_blob().data(), small_blob().size(), &view));
  ASSERT_EQ(view.num_windows(), ds.window_counts.size());

  std::size_t runs = 0, servers = 0, bursts = 0;
  for (std::size_t w = 0; w < view.num_windows(); ++w) {
    const WindowView win = view.window(w);
    EXPECT_EQ(win.index, view.window_begin() + w);
    const WindowKey key = view.key_of(win.index);
    EXPECT_EQ(win.key.region, key.region);
    EXPECT_EQ(win.key.hour, key.hour);
    EXPECT_EQ(win.key.rack_id, key.rack_id);

    // The slice starts exactly where the previous windows ended: windows
    // tile the record columns with no gaps and no overlap.
    EXPECT_EQ(view.windows().run_off[w], runs);
    EXPECT_EQ(view.windows().server_off[w], servers);
    EXPECT_EQ(view.windows().burst_off[w], bursts);
    EXPECT_EQ(win.rack_run.size(), win.has_run ? 1u : 0u);

    if (win.has_run) {
      const RackRunRecord rec = win.rack_run[0];
      EXPECT_EQ(rec.rack_id, ds.rack_runs[runs].rack_id);
      EXPECT_EQ(rec.hour, win.key.hour);
      EXPECT_EQ(rec.region, win.key.region);
    }
    for (std::size_t i = 0; i < win.bursts.size(); ++i) {
      EXPECT_EQ(win.bursts.rack_id[i], ds.bursts[bursts + i].rack_id);
      EXPECT_EQ(win.bursts.hour[i], win.key.hour);
    }
    for (std::size_t i = 0; i < win.server_runs.size(); ++i) {
      EXPECT_EQ(win.server_runs.rack_id[i],
                ds.server_runs[servers + i].rack_id);
    }
    const WindowCounts c = win.counts();
    runs += c.has_run ? 1 : 0;
    servers += c.server_runs;
    bursts += c.bursts;
  }
  EXPECT_EQ(runs, view.rack_runs().size());
  EXPECT_EQ(servers, view.server_runs().size());
  EXPECT_EQ(bursts, view.bursts().size());
}

TEST(DatasetView, IteratesWindowsLargerThanTheSpillChunk) {
  // A SpillSink-written day at a 64-byte chunk: every window's records far
  // exceed the flush granularity, and the mapped per-window slices must
  // still tile the columns exactly as the whole-blob writer's do.
  const fs::path dir = fresh_dir("chunk");
  const fs::path path = dir / "ds.bin";
  const FleetConfig cfg = small_day();
  SpillSink sink(cfg, ShardSpec{}, path.string(), /*chunk_bytes=*/64);
  run_fleet(cfg, ShardSpec{}, sink);
  const auto st = sink.finalize();
  ASSERT_TRUE(st) << st.to_string();

  DatasetView view;
  ASSERT_TRUE(Dataset::open_mapped(path.string(), &view));
  EXPECT_EQ(Dataset::from_view(view).serialize(), small_blob());
  std::uint64_t bursts = 0;
  for (std::size_t w = 0; w < view.num_windows(); ++w) {
    bursts += view.window(w).bursts.size();
  }
  EXPECT_EQ(bursts, small_dataset().bursts.size());
  view.close();
  fs::remove_all(dir);
}

TEST(DatasetView, AttachRejectsMisalignedBase) {
  // The zero-copy column spans reinterpret the base as u64/double arrays;
  // a deliberately offset copy of a valid blob must fail closed with a
  // Status (not UB), since no alignment can be assumed for attach().
  const auto& blob = small_blob();
  std::vector<std::uint8_t> shifted(blob.size() + 1);
  std::copy(blob.begin(), blob.end(), shifted.begin() + 1);
  DatasetView view;
  const auto st = DatasetView::attach(shifted.data() + 1, blob.size(), &view);
  EXPECT_FALSE(st);
  EXPECT_NE(st.to_string().find("aligned"), std::string::npos)
      << st.to_string();
  // The same bytes at an aligned base still open fine.
  DatasetView ok;
  EXPECT_TRUE(DatasetView::attach(blob.data(), blob.size(), &ok));
}

TEST(DatasetView, AttachRejectsUnsupportedVersions) {
  // The retired v4/v5 row layouts, and any version this build does not
  // know, fail closed at the version field of an otherwise valid blob.
  for (const std::uint32_t version : {4u, 5u, 7u}) {
    std::vector<std::uint8_t> blob = small_blob();
    std::memcpy(blob.data() + 4, &version, sizeof(version));
    DatasetView view;
    const auto st = DatasetView::attach(blob.data(), blob.size(), &view);
    EXPECT_FALSE(st) << "v" << version;
    EXPECT_NE(st.to_string().find("unsupported dataset version " +
                                  std::to_string(version)),
              std::string::npos)
        << st.to_string();
    EXPECT_FALSE(view.ok());
  }
}

TEST(DatasetView, RejectsRackClassOutOfRange) {
  // Readers index per-class arrays by a rack's class, so a class byte past
  // the last class fails every open (attach, mmap, owned parse) with the
  // rack named.  The last valid class still opens.
  DatasetView clean;
  ASSERT_TRUE(
      DatasetView::attach(small_blob().data(), small_blob().size(), &clean));
  ASSERT_GE(clean.racks().size(), 2u);
  const auto rack1 = static_cast<std::size_t>(
      clean.racks().rack_class.data() + 1 - small_blob().data());
  const fs::path dir = fresh_dir("rack_class");
  const fs::path path = dir / "class.bin";
  for (const int cls : {2, 3, 255}) {
    const bool valid = cls < analysis::kNumRackClasses;
    std::vector<std::uint8_t> blob = small_blob();
    blob[rack1] = static_cast<std::uint8_t>(cls);
    DatasetView attached;
    const auto st = DatasetView::attach(blob.data(), blob.size(), &attached);
    EXPECT_EQ(static_cast<bool>(st), valid) << "class " << cls;
    if (!valid) {
      EXPECT_NE(st.to_string().find("class " + std::to_string(cls) +
                                    " out of range at rack 1"),
                std::string::npos)
          << st.to_string();
    }
    write_file(path, blob);
    DatasetView mapped;
    EXPECT_EQ(static_cast<bool>(DatasetView::open(path.string(), &mapped)),
              valid)
        << "class " << cls;
    Dataset owned;
    EXPECT_EQ(owned.deserialize(blob), valid) << "class " << cls;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace msamp::fleet
