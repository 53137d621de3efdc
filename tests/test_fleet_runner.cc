// Integration tests for the fleet runner: a miniature day of collections.
#include "fleet/fleet_runner.h"

#include <filesystem>
#include <set>

#include <gtest/gtest.h>

#include "fleet/dataset_view.h"
#include "workload/diurnal.h"

namespace msamp::fleet {
namespace {

FleetConfig tiny() {
  FleetConfig cfg;
  cfg.racks_per_region = 6;
  cfg.servers_per_rack = 46;
  cfg.hours = 8;  // must include the busy hour (6)
  cfg.samples_per_run = 250;
  cfg.warmup_ms = 20;
  // Half-size racks halve contention; scale the class split accordingly.
  cfg.classify.high_threshold = 2.5;
  return cfg;
}

TEST(FleetRunner, DatasetShape) {
  const FleetConfig cfg = tiny();
  const Dataset ds = run_fleet(cfg);
  EXPECT_EQ(ds.fingerprint, cfg.fingerprint());
  EXPECT_EQ(ds.racks.size(), 12u);  // both regions
  EXPECT_EQ(ds.rack_runs.size(), 12u * 8u);
  EXPECT_EQ(ds.server_runs.size(), 12u * 8u * 46u);
  EXPECT_GT(ds.bursts.size(), 100u);
}

TEST(FleetRunner, RegionsPresent) {
  const Dataset ds = run_fleet(tiny());
  std::set<int> regions;
  for (const auto& r : ds.racks) regions.insert(r.region);
  EXPECT_EQ(regions.size(), 2u);
}

TEST(FleetRunner, HoursCovered) {
  const Dataset ds = run_fleet(tiny());
  std::set<int> hours;
  for (const auto& rr : ds.rack_runs) hours.insert(rr.hour);
  EXPECT_EQ(hours.size(), 8u);
}

TEST(FleetRunner, BusyHourClassificationFilled) {
  const Dataset ds = run_fleet(tiny());
  int high = 0;
  for (const auto& r : ds.racks) {
    if (r.region == static_cast<std::uint8_t>(workload::RegionId::kRegA)) {
      if (static_cast<analysis::RackClass>(r.rack_class) ==
          analysis::RackClass::kRegAHigh) {
        ++high;
        // High racks must be ML-dense placements (ground truth agrees
        // with the measured classification).
        EXPECT_EQ(r.ml_dense, 1);
      }
    } else {
      EXPECT_EQ(static_cast<analysis::RackClass>(r.rack_class),
                analysis::RackClass::kRegB);
    }
  }
  EXPECT_GE(high, 1);
}

TEST(FleetRunner, BurstRecordsConsistent) {
  const Dataset ds = run_fleet(tiny());
  for (const auto& b : ds.bursts) {
    EXPECT_GE(b.len_ms, 1);
    EXPECT_GT(b.volume_bytes, 0.0f);
    EXPECT_GE(b.max_contention, 1);  // a burst itself counts
    if (b.contended) {
      EXPECT_GE(b.max_contention, 2);
    }
    EXPECT_LT(b.hour, 8);
  }
}

TEST(FleetRunner, ContendedBurstsDominateInDenseRacks) {
  const Dataset ds = run_fleet(tiny());
  long dense_bursts = 0, dense_contended = 0;
  for (const auto& b : ds.bursts) {
    if (ds.class_of(b.rack_id) == analysis::RackClass::kRegAHigh) {
      ++dense_bursts;
      dense_contended += b.contended;
    }
  }
  if (dense_bursts > 100) {
    EXPECT_GT(static_cast<double>(dense_contended) /
                  static_cast<double>(dense_bursts),
              0.95);
  }
}

TEST(FleetRunner, ExemplarsCaptured) {
  const Dataset ds = run_fleet(tiny());
  // With six racks per region including dense ones, both exemplars should
  // be found during the busy hour.
  EXPECT_GT(ds.high_contention_example.num_samples, 0);
  EXPECT_EQ(ds.high_contention_example.raster.size(),
            static_cast<std::size_t>(ds.high_contention_example.num_servers) *
                ds.high_contention_example.num_samples);
}

TEST(FleetRunner, DeterministicForSeed) {
  const Dataset a = run_fleet(tiny());
  const Dataset b = run_fleet(tiny());
  ASSERT_EQ(a.bursts.size(), b.bursts.size());
  for (std::size_t i = 0; i < a.bursts.size(); ++i) {
    EXPECT_EQ(a.bursts[i].len_ms, b.bursts[i].len_ms);
    EXPECT_EQ(a.bursts[i].lossy, b.bursts[i].lossy);
  }
  ASSERT_EQ(a.rack_runs.size(), b.rack_runs.size());
  for (std::size_t i = 0; i < a.rack_runs.size(); ++i) {
    EXPECT_FLOAT_EQ(a.rack_runs[i].avg_contention,
                    b.rack_runs[i].avg_contention);
  }
}

TEST(FleetRunner, ProgressCallbackAdvances) {
  double last = -1.0;
  int calls = 0;
  FleetConfig cfg = tiny();
  cfg.hours = 2;
  run_fleet(cfg, [&](double p) {
    EXPECT_GT(p, last);
    last = p;
    ++calls;
  });
  // One serialized callback per completed (region, hour, rack) window,
  // strictly increasing and ending at exactly 1.0.
  EXPECT_EQ(calls, 2 * cfg.racks_per_region * cfg.hours);
  EXPECT_DOUBLE_EQ(last, 1.0);
}

TEST(FleetRunner, SharedDatasetCachesToDisk) {
  const std::string cache = "test_fleet_cache/ds.bin";
  std::filesystem::remove_all("test_fleet_cache");
  FleetConfig cfg = tiny();
  cfg.hours = 2;
  cfg.racks_per_region = 2;
  const DatasetView& first = shared_view(cfg, cache);
  EXPECT_TRUE(std::filesystem::exists(cache));
  const DatasetView& second = shared_view(cfg, cache);
  EXPECT_EQ(&first, &second);  // in-process cache hit
  // A fresh mapped open from disk parses and fingerprint-matches.
  DatasetView from_disk;
  const auto st = Dataset::open_mapped(cache, &from_disk);
  ASSERT_TRUE(st) << st.to_string();
  EXPECT_EQ(from_disk.fingerprint(), cfg.fingerprint());
  EXPECT_EQ(from_disk.bursts().size(), first.bursts().size());
  from_disk.close();
  std::filesystem::remove_all("test_fleet_cache");
}

}  // namespace
}  // namespace msamp::fleet
