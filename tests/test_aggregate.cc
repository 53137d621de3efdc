// Tests for the dataset-level aggregation library (fleet/aggregate).
// Aggregations consume a DatasetView, so the hand-rolled fixture is
// serialized to a v6 blob and attached — the same read path production
// uses.
#include "fleet/aggregate.h"

#include <array>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace msamp::fleet {
namespace {

BurstRecord burst(std::uint32_t rack, int region, int len, double conns,
                  int max_contention, bool lossy) {
  BurstRecord b;
  b.rack_id = rack;
  b.region = static_cast<std::uint8_t>(region);
  b.len_ms = static_cast<std::uint16_t>(len);
  b.avg_conns = static_cast<float>(conns);
  b.max_contention = static_cast<std::uint16_t>(max_contention);
  b.contended = max_contention >= 2 ? 1 : 0;
  b.lossy = lossy ? 1 : 0;
  return b;
}

Dataset make_dataset() {
  Dataset ds;
  // Canonical scale so the v6 blob validates: 2 racks per region x 2
  // hours = 8 windows, 4 racks.
  ds.config.racks_per_region = 2;
  ds.config.hours = 2;
  ds.window_begin = 0;
  ds.window_end = 8;
  // Rack 1: RegA typical; rack 2: RegA high; racks 3-4: RegB.
  for (std::uint32_t id : {1u, 2u, 3u, 4u}) {
    RackInfo info;
    info.rack_id = id;
    info.region = id >= 3 ? 1 : 0;
    info.rack_class = static_cast<std::uint8_t>(
        id == 2 ? analysis::RackClass::kRegAHigh
                : (id >= 3 ? analysis::RackClass::kRegB
                           : analysis::RackClass::kRegATypical));
    ds.racks.push_back(info);
  }
  // Typical: 4 bursts (1 lossy, 2 contended).
  ds.bursts.push_back(burst(1, 0, 1, 5, 1, false));
  ds.bursts.push_back(burst(1, 0, 3, 25, 4, true));
  ds.bursts.push_back(burst(1, 0, 8, 55, 6, false));
  ds.bursts.push_back(burst(1, 0, 2, 10, 1, false));
  // High: 2 bursts, all contended, none lossy.
  ds.bursts.push_back(burst(2, 0, 5, 8, 12, false));
  ds.bursts.push_back(burst(2, 0, 6, 9, 15, false));
  // RegB: 1 contended lossy burst.
  ds.bursts.push_back(burst(3, 1, 4, 40, 7, true));

  // Rack runs across two hours, region split.
  for (int hour : {5, 6}) {
    for (std::uint32_t id : {1u, 2u, 3u}) {
      RackRunRecord rr;
      rr.rack_id = id;
      rr.region = id == 3 ? 1 : 0;
      rr.hour = static_cast<std::uint8_t>(hour);
      rr.avg_contention = static_cast<float>(id) + (hour == 6 ? 0.5f : 0.0f);
      ds.rack_runs.push_back(rr);
    }
  }

  // Window directory: 8 windows; the first 6 carry the rack runs (one
  // each, vector order), window 0 carries every burst.  The aggregations
  // scan whole columns, so the partition is free-form as long as the
  // totals tie out.
  ds.window_counts.assign(8, WindowCounts{});
  for (int w = 0; w < 6; ++w) ds.window_counts[w].has_run = 1;
  ds.window_counts[0].bursts = static_cast<std::uint32_t>(ds.bursts.size());
  return ds;
}

/// The dataset above with its bursts replaced, all still in window 0.
Dataset with_bursts(std::vector<BurstRecord> bursts) {
  Dataset ds = make_dataset();
  ds.bursts = std::move(bursts);
  ds.window_counts[0].bursts = static_cast<std::uint32_t>(ds.bursts.size());
  return ds;
}

/// The fixture every test reads through: a dataset (the one above by
/// default), serialized to v6 and attached as a zero-copy view.
struct Fixture {
  Dataset ds;
  std::vector<std::uint8_t> blob;
  DatasetView view;

  explicit Fixture(Dataset d = make_dataset())
      : ds(std::move(d)), blob(ds.serialize()) {
    const auto st = DatasetView::attach(blob.data(), blob.size(), &view);
    EXPECT_TRUE(st) << st.to_string();
  }
};

TEST(Aggregate, ClassMapAndBurstClass) {
  const Fixture f;
  const ClassMap classes = build_class_map(f.view);
  EXPECT_EQ(classes.at(1), analysis::RackClass::kRegATypical);
  EXPECT_EQ(classes.at(2), analysis::RackClass::kRegAHigh);
  EXPECT_EQ(burst_class(f.ds.bursts[0], classes),
            analysis::RackClass::kRegATypical);
  EXPECT_EQ(burst_class(f.ds.bursts[4], classes),
            analysis::RackClass::kRegAHigh);
  EXPECT_EQ(burst_class(f.ds.bursts[6], classes), analysis::RackClass::kRegB);
  // Unknown RegA rack defaults to typical.
  BurstRecord stray = f.ds.bursts[0];
  stray.rack_id = 999;
  EXPECT_EQ(burst_class(stray, classes), analysis::RackClass::kRegATypical);
}

TEST(Aggregate, Table2Summary) {
  const Fixture f;
  const auto summary = table2_summary(f.view, build_class_map(f.view));
  const auto& typical =
      summary[static_cast<std::size_t>(analysis::RackClass::kRegATypical)];
  EXPECT_EQ(typical.bursts, 4);
  EXPECT_EQ(typical.contended, 2);
  EXPECT_EQ(typical.lossy, 1);
  EXPECT_DOUBLE_EQ(typical.pct_contended(), 50.0);
  EXPECT_DOUBLE_EQ(typical.pct_lossy(), 25.0);
  const auto& high =
      summary[static_cast<std::size_t>(analysis::RackClass::kRegAHigh)];
  EXPECT_EQ(high.bursts, 2);
  EXPECT_DOUBLE_EQ(high.pct_contended(), 100.0);
  EXPECT_DOUBLE_EQ(high.pct_lossy(), 0.0);
  const auto& regb =
      summary[static_cast<std::size_t>(analysis::RackClass::kRegB)];
  EXPECT_EQ(regb.bursts, 1);
  EXPECT_DOUBLE_EQ(regb.pct_lossy(), 100.0);
}

TEST(Aggregate, EmptyStatsAreZero) {
  ClassBurstStats empty;
  EXPECT_DOUBLE_EQ(empty.pct_contended(), 0.0);
  EXPECT_DOUBLE_EQ(empty.pct_lossy(), 0.0);
}

TEST(Aggregate, LossByContention) {
  const Fixture f;
  const auto curve = loss_by_contention(f.view, build_class_map(f.view),
                                        analysis::RackClass::kRegATypical,
                                        /*bin_width=*/3, /*max=*/9);
  ASSERT_EQ(curve.size(), 3u);
  // Contention 1,1 -> bin 0; 4 -> bin 1; 6 -> bin 2.
  EXPECT_EQ(curve[0].bursts, 2);
  EXPECT_EQ(curve[0].lossy, 0);
  EXPECT_EQ(curve[1].bursts, 1);
  EXPECT_EQ(curve[1].lossy, 1);
  EXPECT_DOUBLE_EQ(curve[1].pct_lossy(), 100.0);
  EXPECT_EQ(curve[2].bursts, 1);
}

TEST(Aggregate, LossByContentionClampsOverflow) {
  const Fixture f;
  const auto curve =
      loss_by_contention(f.view, build_class_map(f.view),
                         analysis::RackClass::kRegAHigh, 3, 9);
  // Contentions 12 and 15 clamp into the last bin.
  EXPECT_EQ(curve.back().bursts, 2);
}

TEST(Aggregate, LossByLengthAndFilter) {
  const Fixture f;
  const ClassMap classes = build_class_map(f.view);
  const auto all = loss_by_length(f.view, classes,
                                  analysis::RackClass::kRegATypical,
                                  BurstFilter::kAll, 10);
  ASSERT_EQ(all.size(), 10u);
  EXPECT_EQ(all[0].bursts, 1);  // the 1ms burst
  EXPECT_EQ(all[2].bursts, 1);  // the 3ms lossy burst
  EXPECT_EQ(all[2].lossy, 1);

  const auto contended = loss_by_length(
      f.view, classes, analysis::RackClass::kRegATypical,
      BurstFilter::kContended, 10);
  EXPECT_EQ(contended[0].bursts, 0);  // the 1ms burst was not contended
  EXPECT_EQ(contended[2].bursts, 1);

  const auto non = loss_by_length(f.view, classes,
                                  analysis::RackClass::kRegATypical,
                                  BurstFilter::kNonContended, 10);
  EXPECT_EQ(non[0].bursts, 1);
  EXPECT_EQ(non[2].bursts, 0);
}

TEST(Aggregate, LossByConnections) {
  const Fixture f;
  const auto curve = loss_by_connections(
      f.view, build_class_map(f.view), analysis::RackClass::kRegATypical,
      BurstFilter::kAll, /*bin_width=*/10, /*num_bins=*/6);
  ASSERT_EQ(curve.size(), 6u);
  EXPECT_EQ(curve[0].bursts, 1);  // conns 5
  EXPECT_EQ(curve[1].bursts, 1);  // conns 10
  EXPECT_EQ(curve[2].bursts, 1);  // conns 25
  EXPECT_EQ(curve[2].lossy, 1);
  EXPECT_EQ(curve[5].bursts, 1);  // conns 55 clamps into last bin
}

TEST(Aggregate, LossByConnectionsClampsOutOfRange) {
  // NaN and negative counts go in the first bin, counts past the last
  // bin's edge in the last; the in-range bursts keep their bins.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Fixture f(with_bursts({
      burst(1, 0, 1, -5.0, 1, true),
      burst(1, 0, 1, -5000.0, 1, false),
      burst(1, 0, 1, nan, 1, true),
      burst(1, 0, 1, -inf, 1, false),
      burst(1, 0, 1, inf, 1, true),
      burst(1, 0, 1, 1e30, 1, false),
      burst(1, 0, 1, 3e9, 1, false),
      burst(1, 0, 1, 15.0, 1, true),
      burst(1, 0, 1, 59.5, 1, false),
  }));
  const auto curve = loss_by_connections(
      f.view, build_class_map(f.view), analysis::RackClass::kRegATypical,
      BurstFilter::kAll, /*bin_width=*/10, /*num_bins=*/6);
  ASSERT_EQ(curve.size(), 6u);
  EXPECT_EQ(curve[0].bursts, 4);  // -5, -5000, NaN, -inf
  EXPECT_EQ(curve[0].lossy, 2);
  EXPECT_EQ(curve[1].bursts, 1);  // 15
  EXPECT_EQ(curve[1].lossy, 1);
  EXPECT_EQ(curve[2].bursts + curve[3].bursts + curve[4].bursts, 0);
  EXPECT_EQ(curve[5].bursts, 4);  // inf, 1e30, 3e9, 59.5
  EXPECT_EQ(curve[5].lossy, 1);
}

TEST(Aggregate, ClassMemoFollowsRegionAndRack) {
  // Consecutive bursts alternate racks, and rack id 2 (RegA-High in the
  // rack table) also carries RegB bursts.  Every per-burst loop must class
  // each burst as burst_class does: a memo keyed on the rack id alone, or
  // one that never refreshes, miscounts.
  const Fixture f(with_bursts({
      burst(2, 0, 1, 5, 4, true),    // RegA-High
      burst(2, 1, 2, 15, 1, false),  // RegB, same rack id
      burst(2, 0, 3, 25, 7, false),  // RegA-High
      burst(1, 0, 4, 35, 1, true),   // RegA-Typical
      burst(2, 0, 5, 45, 4, true),   // RegA-High
      burst(1, 0, 6, 55, 2, false),  // RegA-Typical
      burst(2, 1, 7, 5, 1, true),    // RegB, same rack id
  }));
  const ClassMap classes = build_class_map(f.view);
  std::array<ClassBurstStats, analysis::kNumRackClasses> want{};
  for (const BurstRecord& b : f.ds.bursts) {
    auto& stats = want[static_cast<std::size_t>(burst_class(b, classes))];
    ++stats.bursts;
    stats.contended += b.contended;
    stats.lossy += b.lossy;
  }
  const auto high = static_cast<std::size_t>(analysis::RackClass::kRegAHigh);
  const auto typical =
      static_cast<std::size_t>(analysis::RackClass::kRegATypical);
  const auto regb = static_cast<std::size_t>(analysis::RackClass::kRegB);
  ASSERT_EQ(want[high].bursts, 3);
  ASSERT_EQ(want[typical].bursts, 2);
  ASSERT_EQ(want[regb].bursts, 2);

  const auto got = table2_summary(f.view, classes);
  auto totals = [](const std::vector<LossBucket>& curve) {
    long bursts = 0, lossy = 0;
    for (const auto& b : curve) {
      bursts += b.bursts;
      lossy += b.lossy;
    }
    return std::pair{bursts, lossy};
  };
  for (std::size_t c = 0; c < want.size(); ++c) {
    const auto cls = static_cast<analysis::RackClass>(c);
    EXPECT_EQ(got[c].bursts, want[c].bursts) << "class " << c;
    EXPECT_EQ(got[c].contended, want[c].contended) << "class " << c;
    EXPECT_EQ(got[c].lossy, want[c].lossy) << "class " << c;
    const std::pair expect{want[c].bursts, want[c].lossy};
    EXPECT_EQ(totals(loss_by_contention(f.view, classes, cls, 1, 10)), expect)
        << "class " << c;
    EXPECT_EQ(totals(loss_by_length(f.view, classes, cls, BurstFilter::kAll,
                                    10)),
              expect)
        << "class " << c;
    EXPECT_EQ(totals(loss_by_connections(f.view, classes, cls,
                                         BurstFilter::kAll, 10, 6)),
              expect)
        << "class " << c;
  }
}

TEST(Aggregate, FlagBytesCountAsSetWhenNonzero) {
  // A file may hold any byte in a burst's `contended` and `lossy` flags.
  // Read as "set when nonzero", flags of 200 give exactly the 0/1 file's
  // tallies; summed, they would count one burst 200 times and print
  // percentages over 100.
  const Fixture ones;
  Dataset wide = make_dataset();
  for (BurstRecord& b : wide.bursts) {
    b.contended = b.contended != 0 ? 200 : 0;
    b.lossy = b.lossy != 0 ? 200 : 0;
  }
  const Fixture f(std::move(wide));
  const ClassMap classes = build_class_map(f.view);
  const auto want = table2_summary(ones.view, classes);
  const auto got = table2_summary(f.view, classes);
  for (std::size_t c = 0; c < got.size(); ++c) {
    EXPECT_EQ(got[c].bursts, want[c].bursts) << "class " << c;
    EXPECT_EQ(got[c].contended, want[c].contended) << "class " << c;
    EXPECT_EQ(got[c].lossy, want[c].lossy) << "class " << c;
    EXPECT_LE(got[c].pct_contended(), 100.0) << "class " << c;
    EXPECT_LE(got[c].pct_lossy(), 100.0) << "class " << c;
  }
  const auto same = [](const std::vector<LossBucket>& a,
                       const std::vector<LossBucket>& b, const char* what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].bursts, b[i].bursts) << what << " bucket " << i;
      EXPECT_EQ(a[i].lossy, b[i].lossy) << what << " bucket " << i;
      EXPECT_LE(a[i].pct_lossy(), 100.0) << what << " bucket " << i;
    }
  };
  for (std::size_t c = 0; c < analysis::kNumRackClasses; ++c) {
    const auto cls = static_cast<analysis::RackClass>(c);
    same(loss_by_contention(f.view, classes, cls, 1, 16),
         loss_by_contention(ones.view, classes, cls, 1, 16), "contention");
    for (const BurstFilter filter :
         {BurstFilter::kAll, BurstFilter::kContended,
          BurstFilter::kNonContended}) {
      same(loss_by_length(f.view, classes, cls, filter, 10),
           loss_by_length(ones.view, classes, cls, filter, 10), "length");
      same(loss_by_connections(f.view, classes, cls, filter, 10, 6),
           loss_by_connections(ones.view, classes, cls, filter, 10, 6),
           "connections");
    }
  }
}

TEST(Aggregate, BusyHourContention) {
  const Fixture f;
  const auto rega =
      busy_hour_contention(f.view, workload::RegionId::kRegA, 6);
  ASSERT_EQ(rega.size(), 2u);  // racks 1 and 2
  EXPECT_FLOAT_EQ(static_cast<float>(rega[0]), 1.5f);
  EXPECT_FLOAT_EQ(static_cast<float>(rega[1]), 2.5f);
  const auto regb =
      busy_hour_contention(f.view, workload::RegionId::kRegB, 6);
  ASSERT_EQ(regb.size(), 1u);
  EXPECT_FLOAT_EQ(static_cast<float>(regb[0]), 3.5f);
}

}  // namespace
}  // namespace msamp::fleet
