// Property tests for util::simd: every available path (scalar, plus AVX2
// where the build and CPU have it) must agree with the scalar reference on
// adversarial inputs — unaligned offsets, lengths around vector-width
// multiples, saturation edges, and NaN/inf handling in the pinned float
// fold.  The suites all start with "Simd" so scripts/check.sh
// can select them with a single -R regex under the sanitizers.
#include "util/simd/simd.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/stats.h"

namespace msamp::util::simd {
namespace {

// Forces a path for one scope and restores the previously active path on
// exit, so test ordering never leaks a forced path into other suites.
class ScopedPath {
 public:
  explicit ScopedPath(IsaPath p) : prev_(active_path()), ok_(force_path(p)) {}
  ~ScopedPath() { force_path(prev_); }
  ScopedPath(const ScopedPath&) = delete;
  ScopedPath& operator=(const ScopedPath&) = delete;
  bool ok() const { return ok_; }

 private:
  IsaPath prev_;
  bool ok_;
};

// Lengths straddling every vector width in play: 4 (AVX2 u64 lanes / fold
// lanes), 28 (one AVX2 tally cycle), 64 (one mask word), plus ragged tails
// around each.
const std::vector<std::size_t>& lengths() {
  static const std::vector<std::size_t> kLens = {
      0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 27, 28, 29,
      31, 32, 33, 63, 64, 65, 100, 128, 129};
  return kLens;
}

// Misaligning the data start by 0..3 u64 words exercises the unaligned
// load/store forms in every vector kernel.
constexpr std::size_t kMaxOffset = 4;

std::vector<std::uint64_t> random_u64(Rng& rng, std::size_t n,
                                      bool near_saturation) {
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) {
    const std::uint64_t r = rng.next();
    if (near_saturation && (r & 3u) == 0u) {
      x = ~std::uint64_t{0} - (r >> 60);  // within 15 of UINT64_MAX
    } else {
      x = r;
    }
  }
  return v;
}

std::vector<std::int64_t> random_i64(Rng& rng, std::size_t n) {
  std::vector<std::int64_t> v(n);
  for (auto& x : v) {
    const std::uint64_t r = rng.next();
    switch (r & 7u) {
      case 0:
        x = std::numeric_limits<std::int64_t>::max();
        break;
      case 1:
        x = std::numeric_limits<std::int64_t>::min();
        break;
      case 2:
        x = 0;
        break;
      default:
        x = static_cast<std::int64_t>(r >> 2) - (1ll << 61);
        break;
    }
  }
  return v;
}

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Inside a TEST body the inherited testing::Test::Run() member hides the
// namespace-level Run type, so the reference below spells it via an alias.
using RunVec = std::vector<Run>;

// The pinned fold DAG from simd.h, restated independently of
// kernels_scalar.cc so the reference itself is under test.
double pinned_fold(const double* v, std::size_t n) {
  double acc[kFoldLanes] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + kFoldLanes <= n; i += kFoldLanes) {
    for (std::size_t j = 0; j < kFoldLanes; ++j) acc[j] += v[i + j];
  }
  double r = (acc[0] + acc[2]) + (acc[1] + acc[3]);
  for (; i < n; ++i) r += v[i];
  return r;
}

TEST(SimdDispatch, AvailablePathsContainScalarAndDetected) {
  const auto paths = available_paths();
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths.front(), IsaPath::kScalar);
  bool has_detected = false;
  for (IsaPath p : paths) {
    if (p == detected_path()) has_detected = true;
  }
  EXPECT_TRUE(has_detected);
}

TEST(SimdDispatch, ForcePathRoundTrips) {
  const IsaPath original = active_path();
  for (IsaPath p : available_paths()) {
    EXPECT_TRUE(force_path(p));
    EXPECT_EQ(active_path(), p);
  }
  EXPECT_TRUE(force_path(original));
  EXPECT_EQ(active_path(), original);
}

TEST(SimdDispatch, ForcingUnavailablePathFailsAndKeepsActive) {
  const auto paths = available_paths();
  const IsaPath original = active_path();
  // An out-of-range path is unavailable on every host, so the check bites
  // even where both real paths are available.
  const IsaPath out_of_range = static_cast<IsaPath>(0x7f);
  for (IsaPath p : {IsaPath::kScalar, IsaPath::kAvx2, out_of_range}) {
    bool available = false;
    for (IsaPath q : paths) available = available || q == p;
    if (available) continue;
    EXPECT_FALSE(force_path(p));
    EXPECT_EQ(active_path(), original);
  }
  EXPECT_STREQ(path_name(out_of_range), "unknown");
}

TEST(SimdDispatch, PathNamesMatchEnvSpellings) {
  EXPECT_STREQ(path_name(IsaPath::kScalar), "scalar");
  EXPECT_STREQ(path_name(IsaPath::kAvx2), "avx2");
}

TEST(SimdKernels, TallyRowsMatchesNaivePerWordFold) {
  Rng rng(0x7a11u);
  const std::uint64_t kMax = ~std::uint64_t{0};
  // Directed saturation edges first: both maximal, exact boundary, one past,
  // and the sums that must not clamp.  Cycling the six pairs over six rows
  // puts each pair at each row position once (6 and 7 are coprime), so
  // every pair lands in tally words and bitmap words, across the unrolled
  // 28-word AVX2 cycle, the per-vector phase loop and the scalar tail.
  struct Edge {
    std::uint64_t a, b, saturated;
  };
  const std::vector<Edge> edges = {
      {kMax, kMax, kMax}, {kMax - 1, 1, kMax}, {kMax - 1, 2, kMax},
      {1, kMax - 1, kMax}, {0, 0, 0},          {kMax, 0, kMax}};
  const std::size_t edge_words = edges.size() * kRowWords;
  std::vector<std::uint64_t> edge_dst(edge_words), edge_src(edge_words),
      edge_want(edge_words);
  for (std::size_t i = 0; i < edge_words; ++i) {
    const Edge& e = edges[i % edges.size()];
    edge_dst[i] = e.a;
    edge_src[i] = e.b;
    edge_want[i] = i % kRowWords < kRowTallyWords ? e.saturated : e.a | e.b;
  }
  for (IsaPath p : available_paths()) {
    ScopedPath sp(p);
    ASSERT_TRUE(sp.ok());
    std::vector<std::uint64_t> dst(edge_dst);
    tally_rows_u64(dst.data(), edge_src.data(), edge_words);
    EXPECT_EQ(dst, edge_want) << path_name(p) << " directed edges";
  }
  // Randomized sweep biased toward near-saturation values, at row counts
  // around the 4-row AVX2 phase cycle (28 words = lcm(4,7)*1).
  for (std::size_t rows : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 10u, 16u}) {
    const std::size_t n_words = rows * kRowWords;
    for (std::size_t off = 0; off < kMaxOffset; ++off) {
      const auto src = random_u64(rng, n_words + off, true);
      const auto dst0 = random_u64(rng, n_words + off, true);
      std::vector<std::uint64_t> want(dst0);
      for (std::size_t i = 0; i < n_words; ++i) {
        if (i % kRowWords < kRowTallyWords) {
          const std::uint64_t s = want[off + i] + src[off + i];
          want[off + i] = s < dst0[off + i] ? kMax : s;
        } else {
          want[off + i] |= src[off + i];
        }
      }
      for (IsaPath p : available_paths()) {
        ScopedPath sp(p);
        ASSERT_TRUE(sp.ok());
        std::vector<std::uint64_t> dst(dst0);
        tally_rows_u64(dst.data() + off, src.data() + off, n_words);
        EXPECT_EQ(dst, want)
            << path_name(p) << " rows=" << rows << " off=" << off;
      }
    }
  }
}

TEST(SimdKernels, SumI64WrapsWithoutUB) {
  Rng rng(0x51u);
  for (std::size_t n : lengths()) {
    for (std::size_t off = 0; off < kMaxOffset; ++off) {
      const auto v = random_i64(rng, n + off);
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < n; ++i) {
        acc += static_cast<std::uint64_t>(v[off + i]);
      }
      const auto want = static_cast<std::int64_t>(acc);
      for (IsaPath p : available_paths()) {
        ScopedPath sp(p);
        ASSERT_TRUE(sp.ok());
        EXPECT_EQ(sum_i64(v.data() + off, n), want)
            << path_name(p) << " n=" << n << " off=" << off;
      }
    }
  }
}

TEST(SimdKernels, ThresholdMaskStrictCompareAndZeroTail) {
  Rng rng(0x7123u);
  const std::vector<std::int64_t> thresholds = {
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max(), -1, 0, 1, 1 << 20};
  for (std::size_t n : lengths()) {
    const std::size_t words = (n + 63) / 64;
    for (std::int64_t t : thresholds) {
      auto v = random_i64(rng, n);
      // Plant exact-equality values: strict > must leave them unset.
      for (std::size_t i = 0; i < n; i += 3) v[i] = t;
      std::vector<std::uint64_t> want(words, 0);
      for (std::size_t i = 0; i < n; ++i) {
        if (v[i] > t) want[i / 64] |= std::uint64_t{1} << (i % 64);
      }
      for (IsaPath p : available_paths()) {
        ScopedPath sp(p);
        ASSERT_TRUE(sp.ok());
        // Pre-poison the output: the kernel must clear tail bits itself.
        std::vector<std::uint64_t> got(words, ~std::uint64_t{0});
        threshold_mask_i64(v.data(), n, t, got.data());
        EXPECT_EQ(got, want) << path_name(p) << " n=" << n << " t=" << t;
      }
    }
  }
}

TEST(SimdKernels, ExtractRunsMatchesNaiveBitScan) {
  Rng rng(0xdeadu);
  for (std::size_t n : lengths()) {
    const std::size_t words = (n + 63) / 64;
    std::vector<std::uint64_t> mask(words, 0);
    for (auto& w : mask) {
      const std::uint64_t r = rng.next();
      // Mix of sparse, dense, all-zero, and all-one words to hit the
      // word-at-a-time fast paths.
      switch (r & 3u) {
        case 0: w = 0; break;
        case 1: w = ~std::uint64_t{0}; break;
        case 2: w = r; break;
        default: w = r & rng.next() & rng.next(); break;
      }
    }
    // Naive reference: per-bit scan.
    RunVec want;
    for (std::size_t i = 0; i < n; ++i) {
      const bool set = (mask[i / 64] >> (i % 64)) & 1u;
      if (set) {
        if (!want.empty() && want.back().start + want.back().len == i) {
          ++want.back().len;
        } else {
          want.push_back({i, 1});
        }
      }
    }
    const auto got = extract_runs(mask.data(), n);
    ASSERT_EQ(got.size(), want.size()) << "n=" << n;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].start, want[i].start);
      EXPECT_EQ(got[i].len, want[i].len);
    }
  }
}

TEST(SimdKernels, GatherStrideAllPaths) {
  Rng rng(0x6a7u);
  for (std::size_t stride : {1u, 2u, 3u, 6u, 11u}) {
    for (std::size_t n : lengths()) {
      const auto base = random_i64(rng, n * stride + 1);
      std::vector<std::int64_t> want(n);
      for (std::size_t i = 0; i < n; ++i) want[i] = base[i * stride];
      for (IsaPath p : available_paths()) {
        ScopedPath sp(p);
        ASSERT_TRUE(sp.ok());
        std::vector<std::int64_t> got(n, -1);
        gather_stride_i64(base.data(), stride, n, got.data());
        EXPECT_EQ(got, want) << path_name(p) << " stride=" << stride
                             << " n=" << n;
      }
    }
  }
}

TEST(SimdKernels, DtAdmitMatchesScalarFormula) {
  Rng rng(0xd7u);
  for (std::size_t n : lengths()) {
    std::vector<std::int64_t> demand(n), limit(n), qlen(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Realistic byte counts plus directed negatives: queues deeper than
      // the limit must clamp room to zero, not go negative.
      demand[i] = static_cast<std::int64_t>(rng.uniform_int(1u << 30));
      limit[i] = static_cast<std::int64_t>(rng.uniform_int(1u << 28));
      qlen[i] = static_cast<std::int64_t>(rng.uniform_int(1u << 29));
    }
    for (std::int64_t drain : {std::int64_t{0}, std::int64_t{1 << 16}}) {
      std::vector<std::int64_t> want(n);
      for (std::size_t i = 0; i < n; ++i) {
        std::int64_t room = limit[i] - qlen[i];
        if (room < 0) room = 0;
        room += drain;
        want[i] = demand[i] < room ? demand[i] : room;
      }
      for (IsaPath p : available_paths()) {
        ScopedPath sp(p);
        ASSERT_TRUE(sp.ok());
        std::vector<std::int64_t> got(n, -1);
        dt_admit_i64(demand.data(), limit.data(), qlen.data(), drain,
                     got.data(), n);
        EXPECT_EQ(got, want) << path_name(p) << " n=" << n
                             << " drain=" << drain;
      }
    }
  }
}

TEST(SimdFold, SumF64BitIdenticalToPinnedDagOnAllPaths) {
  Rng rng(0xf01du);
  for (std::size_t n : lengths()) {
    for (std::size_t off = 0; off < kMaxOffset; ++off) {
      std::vector<double> v(n + off);
      for (auto& x : v) x = rng.normal(0.0, 1e6);
      const double want = pinned_fold(v.data() + off, n);
      for (IsaPath p : available_paths()) {
        ScopedPath sp(p);
        ASSERT_TRUE(sp.ok());
        const double got = sum_f64(v.data() + off, n);
        EXPECT_EQ(bits_of(got), bits_of(want))
            << path_name(p) << " n=" << n << " off=" << off;
      }
    }
  }
}

TEST(SimdFold, SumF64SpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Deterministic specials: bitwise identity across paths.
  const std::vector<std::vector<double>> cases = {
      {},                                  // empty -> +0.0
      {-0.0, -0.0, -0.0, -0.0},            // full group of -0.0
      {-0.0},                              // tail-only -0.0
      {inf, 1.0, 2.0, 3.0, 4.0},           // inf propagates
      {-inf, -inf, 0.0, 5.0},              // -inf propagates
      {1e308, 1e308, -1e308, -1e308},      // overflow then cancel, per-lane
      {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}  // inexact decimals, ragged tail
  };
  for (const auto& v : cases) {
    const double want = pinned_fold(v.data(), v.size());
    for (IsaPath p : available_paths()) {
      ScopedPath sp(p);
      ASSERT_TRUE(sp.ok());
      const double got = sum_f64(v.data(), v.size());
      EXPECT_EQ(bits_of(got), bits_of(want))
          << path_name(p) << " n=" << v.size();
    }
  }
  // NaN in: NaN out on every path (payload propagation is ISA business, so
  // only the predicate is pinned, not the payload).
  const std::vector<double> with_nan = {1.0, nan, 2.0, 3.0, 4.0};
  for (IsaPath p : available_paths()) {
    ScopedPath sp(p);
    ASSERT_TRUE(sp.ok());
    EXPECT_TRUE(std::isnan(sum_f64(with_nan.data(), with_nan.size())))
        << path_name(p);
  }
  // inf + -inf inside one lane chain -> NaN, deterministically.
  const std::vector<double> cancel_inf = {inf, 0.0, 0.0, 0.0, -inf};
  for (IsaPath p : available_paths()) {
    ScopedPath sp(p);
    ASSERT_TRUE(sp.ok());
    EXPECT_TRUE(std::isnan(sum_f64(cancel_inf.data(), cancel_inf.size())))
        << path_name(p);
  }
}

TEST(SimdFold, CanonicalSumRoutesThroughPinnedFold) {
  Rng rng(0xca40u);
  std::vector<double> v(257);
  for (auto& x : v) x = rng.lognormal(8.0, 2.0);
  for (IsaPath p : available_paths()) {
    ScopedPath sp(p);
    ASSERT_TRUE(sp.ok());
    const double via_stats = util::canonical_sum(v.data(), v.size());
    const double via_simd = sum_f64(v.data(), v.size());
    EXPECT_EQ(bits_of(via_stats), bits_of(via_simd)) << path_name(p);
  }
}

}  // namespace
}  // namespace msamp::util::simd
