// Property tests for util::simd: every available path (scalar, plus AVX2
// where the build and CPU have it) must agree with a naive reference on
// adversarial inputs — unaligned offsets, row counts around the AVX2 cycle
// and saturation edges.  The suites all start with "Simd" so
// scripts/check.sh can select them with a single -R regex under the
// sanitizers.
#include "util/simd/simd.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

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

// Misaligning the data start by 0..3 u64 words exercises the unaligned
// load/store forms of the AVX2 tally.
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

}  // namespace
}  // namespace msamp::util::simd
