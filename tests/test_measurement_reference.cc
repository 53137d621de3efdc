// Reference test for the measurement path of a window: the tc filter's
// user-space read (§4.2) and SyncMillisampler's interpolate-and-trim
// (§4.4), compared bit for bit against a plain restatement of their
// arithmetic: every CPU row folded into a zeroed accumulator (counters
// saturating-add, sketches OR), the linear-counting estimate through
// std::log, and the blend rounded by std::llround.  Both sides run on the
// same host and libm, so the test holds on every platform; the benchmark's
// pinned digests cover whole generated days.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/sync_controller.h"
#include "core/tc_filter.h"
#include "util/rng.h"

namespace msamp::core {
namespace {

constexpr sim::SimDuration kMs = sim::kMillisecond;

// ---- The reference arithmetic ----

/// -m * ln(zeros / m), saturating at zeros == 0.  The argument passes
/// through a volatile so std::log runs in libm at run time, never folded
/// by the compiler.
double ref_estimate(int zeros) {
  constexpr double m = FlowSketch::kBits;
  volatile double arg = zeros == 0 ? 1.0 / m : static_cast<double>(zeros) / m;
  return -m * std::log(arg);
}

double ref_connections(std::uint64_t w0, std::uint64_t w1) {
  if ((w0 | w1) == 0) return 0.0;
  return ref_estimate(FlowSketch::kBits - std::popcount(w0) -
                      std::popcount(w1));
}

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t s = a + b;
  return s < a ? std::numeric_limits<std::uint64_t>::max() : s;
}

/// Every CPU's rows folded into a zeroed accumulator, then converted.
std::vector<BucketSample> ref_read(const TcFilter& f) {
  const int cpus = f.config().num_cpus;
  const int buckets = f.config().num_buckets;
  std::vector<RawBucket> acc(static_cast<std::size_t>(buckets));
  for (int c = 0; c < cpus; ++c) {
    for (int b = 0; b < buckets; ++b) {
      const RawBucket& r = f.raw(c, b);
      RawBucket& a = acc[static_cast<std::size_t>(b)];
      a.in_bytes = sat_add(a.in_bytes, r.in_bytes);
      a.in_retx_bytes = sat_add(a.in_retx_bytes, r.in_retx_bytes);
      a.out_bytes = sat_add(a.out_bytes, r.out_bytes);
      a.out_retx_bytes = sat_add(a.out_retx_bytes, r.out_retx_bytes);
      a.in_ecn_bytes = sat_add(a.in_ecn_bytes, r.in_ecn_bytes);
      a.sketch[0] |= r.sketch[0];
      a.sketch[1] |= r.sketch[1];
    }
  }
  std::vector<BucketSample> out;
  for (const RawBucket& a : acc) {
    BucketSample s;
    s.in_bytes = static_cast<std::int64_t>(a.in_bytes);
    s.in_retx_bytes = static_cast<std::int64_t>(a.in_retx_bytes);
    s.out_bytes = static_cast<std::int64_t>(a.out_bytes);
    s.out_retx_bytes = static_cast<std::int64_t>(a.out_retx_bytes);
    s.in_ecn_bytes = static_cast<std::int64_t>(a.in_ecn_bytes);
    s.connections = ref_connections(a.sketch[0], a.sketch[1]);
    out.push_back(s);
  }
  return out;
}

BucketSample ref_lerp(const BucketSample& a, const BucketSample& b, double t) {
  auto mix = [t](std::int64_t x, std::int64_t y) {
    return static_cast<std::int64_t>(
        std::llround(static_cast<double>(x) +
                     t * (static_cast<double>(y) - static_cast<double>(x))));
  };
  BucketSample out;
  out.in_bytes = mix(a.in_bytes, b.in_bytes);
  out.in_retx_bytes = mix(a.in_retx_bytes, b.in_retx_bytes);
  out.out_bytes = mix(a.out_bytes, b.out_bytes);
  out.out_retx_bytes = mix(a.out_retx_bytes, b.out_retx_bytes);
  out.in_ecn_bytes = mix(a.in_ecn_bytes, b.in_ecn_bytes);
  out.connections = a.connections + t * (b.connections - a.connections);
  return out;
}

std::vector<BucketSample> ref_align(const RunRecord& r,
                                    sim::SimTime grid_start, std::size_t n) {
  std::vector<BucketSample> out(n);
  if (!r.valid()) return out;
  const double dt = static_cast<double>(r.interval);
  for (std::size_t k = 0; k < n; ++k) {
    const sim::SimTime t =
        grid_start + static_cast<sim::SimDuration>(k) * r.interval;
    const double x = static_cast<double>(t - r.start) / dt;
    if (x < 0.0) continue;
    const auto i = static_cast<std::size_t>(x);
    if (i >= r.buckets.size()) continue;
    const double frac = x - static_cast<double>(i);
    out[k] = frac == 0.0 || i + 1 >= r.buckets.size()
                 ? r.buckets[i]
                 : ref_lerp(r.buckets[i], r.buckets[i + 1], frac);
  }
  return out;
}

/// The grid spans [latest start, earliest end) over the valid records.
SyncRun ref_combine(const std::vector<RunRecord>& records) {
  SyncRun out;
  out.interval = records.empty() ? kMs : records.front().interval;
  bool any = false;
  sim::SimTime lo = 0, hi = 0;
  for (const RunRecord& r : records) {
    if (!r.valid()) continue;
    const sim::SimTime end = r.start + r.duration();
    lo = any ? std::max(lo, r.start) : r.start;
    hi = any ? std::min(hi, end) : end;
    any = true;
  }
  if (!any || hi <= lo || (hi - lo) / out.interval == 0) return out;
  const auto n = static_cast<std::size_t>((hi - lo) / out.interval);
  out.grid_start = lo;
  for (const RunRecord& r : records) {
    out.hosts.push_back(r.host);
    out.series.push_back(ref_align(r, lo, n));
  }
  return out;
}

// ---- Bit-exact comparison ----

bool same(const BucketSample& a, const BucketSample& b) {
  return a.in_bytes == b.in_bytes && a.in_retx_bytes == b.in_retx_bytes &&
         a.out_bytes == b.out_bytes && a.out_retx_bytes == b.out_retx_bytes &&
         a.in_ecn_bytes == b.in_ecn_bytes &&
         std::bit_cast<std::uint64_t>(a.connections) ==
             std::bit_cast<std::uint64_t>(b.connections);
}

/// Asserts equal series and reports the first differing sample.
void expect_same(const std::vector<BucketSample>& got,
                 const std::vector<BucketSample>& want,
                 const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (same(got[i], want[i])) continue;
    ADD_FAILURE() << what << ": sample " << i << " differs: in_bytes "
                  << got[i].in_bytes << " vs " << want[i].in_bytes
                  << ", out_bytes " << got[i].out_bytes << " vs "
                  << want[i].out_bytes << ", connections "
                  << got[i].connections << " vs " << want[i].connections;
    return;
  }
}

void expect_same_run(const SyncRun& got, const SyncRun& want,
                     const std::string& what) {
  EXPECT_EQ(got.grid_start, want.grid_start) << what;
  EXPECT_EQ(got.interval, want.interval) << what;
  EXPECT_EQ(got.hosts, want.hosts) << what;
  ASSERT_EQ(got.series.size(), want.series.size()) << what;
  for (std::size_t s = 0; s < got.series.size(); ++s) {
    expect_same(got.series[s], want.series[s],
                what + " server " + std::to_string(s));
  }
}

// ---- Inputs ----

/// The sketch words of successive buckets: mostly the previous bucket's
/// words (a flow set persists across buckets), sometimes one word
/// changed, emptied, saturated, or redrawn.
struct SketchWalk {
  std::uint64_t w[2] = {0, 0};

  void next(util::Rng& rng) {
    const auto pick = rng.uniform_int(20);
    if (pick < 10) return;  // repeat
    if (pick < 12) {
      w[0] ^= 1ULL << rng.uniform_int(64);
    } else if (pick < 14) {
      w[1] ^= 1ULL << rng.uniform_int(64);
    } else if (pick < 16) {
      w[0] = w[1] = 0;  // empty
    } else if (pick < 17) {
      w[0] = w[1] = ~0ULL;  // saturated
    } else {
      w[0] = rng.next() & rng.next();
      w[1] = rng.next() & rng.next();
    }
  }
};

/// A counter value: usually a plausible byte count, sometimes one that
/// wraps past 2^63 once read or saturates a multi-CPU fold.
std::int64_t counter(util::Rng& rng) {
  switch (rng.uniform_int(16)) {
    case 0:
      return -1;  // UINT64_MAX in the kernel row
    case 1:
      return std::numeric_limits<std::int64_t>::max() -
             static_cast<std::int64_t>(rng.uniform_int(1000));
    case 2:
      return (std::int64_t{1} << 52) +
             static_cast<std::int64_t>(rng.uniform_int(1 << 20));
    default:
      return static_cast<std::int64_t>(rng.uniform_int(1600000));
  }
}

/// Runs one filter run: a step every `interval` from `first`, each
/// delivering 1-3 batches on random CPUs that together carry the walk's
/// sketch, until two steps past the last bucket.
void drive(TcFilter& f, util::Rng& rng, sim::SimTime first,
           sim::SimDuration interval) {
  f.enable(interval);
  SketchWalk walk;
  const int cpus = f.config().num_cpus;
  const int steps = f.config().num_buckets + 2;
  for (int k = 0; k < steps; ++k) {
    walk.next(rng);
    const sim::SimTime now = first + k * interval;
    const int batches = 1 + static_cast<int>(rng.uniform_int(3));
    for (int j = 0; j < batches; ++j) {
      SegmentBatch b;
      b.in_bytes = counter(rng);
      b.in_retx_bytes = counter(rng);
      b.in_ecn_bytes = counter(rng);
      b.out_bytes = counter(rng);
      b.out_retx_bytes = counter(rng);
      // The last batch completes the walk's words; earlier ones carry a
      // random subset, so multi-CPU rows must OR back together.
      const std::uint64_t keep = j + 1 == batches ? ~0ULL : rng.next();
      b.sketch[0] = walk.w[0] & keep;
      b.sketch[1] = walk.w[1] & keep;
      f.process_batch(static_cast<int>(rng.uniform_int(
                          static_cast<std::uint64_t>(cpus) * 2)),
                      b, now);
    }
  }
}

TcFilter make_filter(int cpus, int buckets) {
  TcFilterConfig cfg;
  cfg.num_cpus = cpus;
  cfg.num_buckets = buckets;
  return TcFilter(cfg);
}

// ---- Tests ----

TEST(MeasurementReference, EstimateMatchesLogAtEveryZeroCount) {
  for (int zeros = 0; zeros <= FlowSketch::kBits; ++zeros) {
    const int set = FlowSketch::kBits - zeros;
    FlowSketch s;
    s.set_words(set >= 64 ? ~0ULL : (1ULL << set) - 1,
                set <= 64 ? 0 : ~0ULL >> (FlowSketch::kBits - set));
    ASSERT_EQ(s.popcount(), set);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s.estimate()),
              std::bit_cast<std::uint64_t>(ref_estimate(zeros)))
        << zeros << " zero bits: " << s.estimate() << " vs "
        << ref_estimate(zeros);
  }
}

TEST(MeasurementReference, ReadMatchesZeroedFold) {
  util::Rng rng(0x5eed);
  std::vector<BucketSample> out;
  for (int cpus : {1, 2, 32}) {
    for (int round = 0; round < 6; ++round) {
      const int buckets = 20 + static_cast<int>(rng.uniform_int(200));
      TcFilter f = make_filter(cpus, buckets);
      const sim::SimTime first =
          static_cast<sim::SimTime>(rng.uniform_int(5 * kMs)) - kMs;
      drive(f, rng, first, kMs);
      const std::string what = std::to_string(cpus) + " cpus, round " +
                               std::to_string(round);
      const auto want = ref_read(f);
      expect_same(f.read_aggregated(), want, what);
      // The reusing read overwrites whatever `out` held, longer or shorter.
      f.read_aggregated(out);
      expect_same(out, want, what + " (reused)");
    }
  }
}

TEST(MeasurementReference, NegativeHostTimeRelatchesTheStart) {
  // With no warm-up and a negative clock offset, the first step arrives
  // at a negative host time: it latches a negative start, which reads as
  // "not started", so the next step latches again and bucket 0 holds both.
  TcFilter f = make_filter(1, 4);
  f.enable(kMs);
  const sim::SimTime offset = -kMs / 3;
  for (int k = 0; k < 6; ++k) {
    SegmentBatch b;
    b.in_bytes = std::int64_t{1} << k;
    b.sketch[0] = 1ULL << k;
    f.process_batch(0, b, offset + k * kMs);
  }
  EXPECT_EQ(f.start_time(), offset + kMs);
  EXPECT_FALSE(f.enabled());
  const auto read = f.read_aggregated();
  expect_same(read, ref_read(f), "relatched");
  ASSERT_EQ(read.size(), 4u);
  EXPECT_EQ(read[0].in_bytes, 1 + 2);
  EXPECT_EQ(read[3].in_bytes, 16);

  // A run whose every step is at a negative host time never starts.
  TcFilter early = make_filter(1, 4);
  early.enable(kMs);
  SegmentBatch b;
  b.in_bytes = 7;
  for (int k = 0; k < 3; ++k) early.process_batch(0, b, -5 * kMs + k * kMs);
  EXPECT_LT(early.start_time(), 0);
  RunRecord idle{
      .host = 1, .start = early.start_time(), .interval = kMs, .buckets = {}};
  early.read_aggregated(idle.buckets);
  RunRecord live{.host = 0, .start = f.start_time(), .interval = kMs,
                 .buckets = read};
  SyncRun got;
  combine_runs({live, idle}, got);
  expect_same_run(got, ref_combine({live, idle}), "never started");
}

TEST(MeasurementReference, CombineMatchesLlroundAlign) {
  util::Rng rng(0xa11);
  SyncRun got;  // reused across racks, as a re-armed rack reuses it
  for (int rack = 0; rack < 24; ++rack) {
    const int cpus = rack % 3 == 0 ? 1 : rack % 3 == 1 ? 2 : 32;
    const int buckets = 30 + static_cast<int>(rng.uniform_int(120));
    const int hosts = 1 + static_cast<int>(rng.uniform_int(12));
    std::vector<RunRecord> records(static_cast<std::size_t>(hosts));
    for (int h = 0; h < hosts; ++h) {
      RunRecord& r = records[static_cast<std::size_t>(h)];
      r.host = static_cast<net::HostId>(h);
      r.interval = kMs;
      TcFilter f = make_filter(cpus, buckets);
      // Clock offsets as the fluid rack draws them, plus exact half and
      // quarter buckets so blends land on .5.
      const auto pick = rng.uniform_int(4);
      sim::SimTime offset =
          static_cast<sim::SimTime>(rng.uniform_int(1800 * 1000)) - 900 * 1000;
      if (pick == 0) offset = kMs / 2;
      if (pick == 1) {
        offset = kMs / 4 * static_cast<sim::SimTime>(1 + rng.uniform_int(3));
      }
      if (rng.uniform_int(8) == 0) {
        f.enable(kMs);  // idle host: enabled, never saw a packet
      } else {
        drive(f, rng, 3 * kMs + offset, kMs);
      }
      r.start = f.start_time();
      f.read_aggregated(r.buckets);
    }
    combine_runs(records, got);
    expect_same_run(got, ref_combine(records),
                    "rack " + std::to_string(rack));
  }
}

RunRecord series(net::HostId host, sim::SimTime start,
                 const std::vector<std::int64_t>& values) {
  RunRecord r{.host = host, .start = start, .interval = kMs, .buckets = {}};
  for (std::int64_t v : values) {
    BucketSample s;
    s.in_bytes = v;
    s.in_retx_bytes = ~v;
    s.out_bytes = v / 2;
    s.out_retx_bytes = v ^ 1;
    s.in_ecn_bytes = v / 3;
    s.connections = static_cast<double>(v) / 3.0;
    r.buckets.push_back(s);
  }
  return r;
}

TEST(MeasurementReference, BlendRoundingAtHalvesAndOutsideTheFastRange) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t k52 = std::int64_t{1} << 52;
  constexpr std::int64_t k53 = std::int64_t{1} << 53;
  // The pairs at the end repeat a value: an unchanged counter blends to
  // itself below 2^52, and from there up takes std::llround's answer,
  // which past 2^53 is not the counter (a double cannot hold it).
  const std::vector<std::int64_t> values = {
      0, 1, 2, 3, -3, -4, 5, -6, 7, 10, 11, 1001, -1001, 123456789,
      k52 - 3, k52 - 2, k52 - 1, k52, k52 + 1, k52 + 3, -k52, -k52 - 1,
      -k52 + 1, 3 * k52, kMax, kMax - 1, kMax - 1000, kMin, kMin + 1,
      kMin + 1000, 0, kMax, kMin, 0,
      k52 - 1, k52 - 1, -(k52 - 1), -(k52 - 1), k52, k52, -k52, -k52,
      k52 + 1, k52 + 1, k53 + 1, k53 + 1, kMax, kMax, kMin, kMin, 0};
  // Records offset by quarter buckets put the grid at fractions 0.25, 0.5
  // and 0.75 of a bucket: odd and 2-mod-4 differences land exactly on .5.
  std::vector<RunRecord> records;
  for (int q = 0; q < 4; ++q) {
    std::vector<std::int64_t> shifted(values.begin() + q, values.end());
    shifted.insert(shifted.end(), values.begin(), values.begin() + q);
    records.push_back(series(static_cast<net::HostId>(q), q * kMs / 4,
                             shifted));
  }
  SyncRun got;
  combine_runs(records, got);
  expect_same_run(got, ref_combine(records), "edge values");

  std::vector<BucketSample> out;
  for (const RunRecord& r : records) {
    for (sim::SimTime g : {sim::SimTime{0}, kMs / 2, kMs / 4, 3 * kMs / 4}) {
      align_series(r, g, values.size(), out);
      expect_same(out, ref_align(r, g, values.size()),
                  "align at " + std::to_string(g));
    }
  }
}

TEST(MeasurementReference, LerpMatchesLlroundOnRandomBlends) {
  util::Rng rng(0x1e5);
  const double halves[] = {0.5, std::nextafter(0.5, 0.0),
                           std::nextafter(0.5, 1.0), 0.25, 0.75};
  auto value = [&rng]() -> std::int64_t {
    switch (rng.uniform_int(4)) {
      case 0:  // any int64
        return static_cast<std::int64_t>(rng.next());
      case 1:  // up to 2^54 either side of zero
        return static_cast<std::int64_t>(rng.next() >> 10) *
               (rng.bernoulli(0.5) ? 1 : -1);
      default:
        return static_cast<std::int64_t>(rng.uniform_int(1 << 24)) -
               (1 << 23);
    }
  };
  for (int i = 0; i < 200000; ++i) {
    BucketSample a, b;
    a.in_bytes = value();
    // A quarter of the counters did not change since the last bucket.
    b.in_bytes = rng.bernoulli(0.25) ? a.in_bytes : value();
    // Odd differences: a blend at t = 0.5 lands exactly on .5.
    a.out_bytes = static_cast<std::int64_t>(rng.uniform_int(1ULL << 40)) -
                  (std::int64_t{1} << 39);
    b.out_bytes = a.out_bytes + (rng.bernoulli(0.5) ? 1 : -1) *
                                    static_cast<std::int64_t>(
                                        2 * rng.uniform_int(1000) + 1);
    a.connections = rng.uniform(0.0, 600.0);
    b.connections = rng.uniform(0.0, 600.0);
    const double t = rng.bernoulli(0.5) ? halves[rng.uniform_int(5)]
                                        : rng.uniform();
    const BucketSample got = lerp_sample(a, b, t);
    const BucketSample want = ref_lerp(a, b, t);
    ASSERT_TRUE(same(got, want))
        << "blend " << i << " t=" << t << ": in " << a.in_bytes << "->"
        << b.in_bytes << " gives " << got.in_bytes << " vs "
        << want.in_bytes << "; out " << a.out_bytes << "->" << b.out_bytes
        << " gives " << got.out_bytes << " vs " << want.out_bytes;
  }
}

}  // namespace
}  // namespace msamp::core
