// bench_simd_kernels: throughput of the util::simd kernel on every path
// available to the binary (scalar, plus AVX2 on x86 hosts that have it),
// measured against the scalar reference.
// scripts/check_bench_determinism.sh parses the CSV and asserts the AVX2
// path actually pays for itself (>= 2x on the u64 tally); the
// byte-identity of the *results* across paths is enforced separately by
// the scalar cells of the same script and of
// scripts/check_dataset_determinism.sh, and by tests/test_simd.cc.
//
// This bench measures wall time, so its CSV is inherently nondeterministic
// and scripts/check_bench_determinism.sh excludes it from the byte-identity
// sweep.
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common.h"
#include "util/rng.h"
#include "util/simd/simd.h"
#include "util/table.h"

namespace {

using msamp::util::simd::IsaPath;

// Keeps the compiler from proving a kernel's output dead and deleting the
// timed loop.
inline void keep(const void* p) {
  asm volatile("" : : "g"(p) : "memory");  // NOLINT
}

std::int64_t now_ns() {
  // Wall time on purpose: this bench measures throughput, and its CSV is
  // excluded from the byte-identity checks.
  using Clock =
      std::chrono::steady_clock;  // msamp-lint: allow(nondet-time) perf bench
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Best-of-`kMeasures` wall time for `iters` calls of `fn`, in ns per call.
std::int64_t best_ns_per_call(const std::function<void()>& fn) {
  constexpr int kMeasures = 5;
  constexpr int kIters = 512;
  fn();  // warm caches and the dispatch table before the first measurement
  std::int64_t best = 0;
  for (int m = 0; m < kMeasures; ++m) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kIters; ++i) fn();
    const std::int64_t dt = now_ns() - t0;
    if (m == 0 || dt < best) best = dt;
  }
  const std::int64_t per_call = best / kIters;
  return per_call > 0 ? per_call : 1;
}

}  // namespace

int main() {
  namespace simd = msamp::util::simd;
  msamp::bench::header(
      "simd_kernels",
      "util::simd dispatch: the AVX2 path vs the scalar reference on the "
      "sampler's per-CPU counter tally");

  // 16 KiB per u64 array: a src+dst pair stays L1-resident, so the numbers
  // measure kernel arithmetic, not cache bandwidth.
  constexpr std::size_t kN = 1u << 11;
  msamp::util::Rng rng(42);
  std::vector<std::uint64_t> u_dst(kN), u_src(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    u_dst[i] = rng.next() >> 1;
    u_src[i] = rng.next() >> 20;
  }
  const std::size_t tally_words = (kN / simd::kRowWords) * simd::kRowWords;
  const std::function<void()> tally = [&] {
    simd::tally_rows_u64(u_dst.data(), u_src.data(), tally_words);
    keep(u_dst.data());
  };

  const IsaPath original = simd::active_path();
  msamp::util::Table table({"kernel", "path", "elems", "ns_per_call",
                            "melems_per_s", "speedup_vs_scalar"});
  std::int64_t scalar_ns = 0;
  for (IsaPath p : simd::available_paths()) {
    simd::force_path(p);
    const std::int64_t ns = best_ns_per_call(tally);
    if (p == IsaPath::kScalar) scalar_ns = ns;
    const double melems =
        static_cast<double>(tally_words) * 1e3 / static_cast<double>(ns);
    const double speedup =
        static_cast<double>(scalar_ns) / static_cast<double>(ns);
    table.row()
        .cell("tally_rows_u64")
        .cell(simd::path_name(p))
        .cell(tally_words)
        .cell(ns)
        .cell(melems, 1)
        .cell(speedup, 2);
  }
  simd::force_path(original);

  msamp::bench::emit_table("simd_kernels", table);
  return 0;
}
