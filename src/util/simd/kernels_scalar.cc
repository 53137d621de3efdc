// Scalar reference implementations for every util::simd kernel. This
// translation unit is compiled with -fno-tree-vectorize (see
// src/util/CMakeLists.txt) so the "scalar" path stays honestly scalar: it is
// both the correctness reference the property tests compare against and the
// baseline the bench speedup numbers are measured from.
#include <cstddef>
#include <cstdint>

#include "util/simd/simd_internal.h"

namespace msamp::util::simd::internal {
namespace {

inline std::uint64_t sat_add_word(std::uint64_t a, std::uint64_t b) noexcept {
  const std::uint64_t s = a + b;
  return s < a ? ~std::uint64_t{0} : s;
}

void tally_rows_u64_scalar(std::uint64_t* dst, const std::uint64_t* src,
                           std::size_t n_words) {
  std::size_t word_in_row = 0;
  for (std::size_t i = 0; i < n_words; ++i) {
    if (word_in_row < kRowTallyWords) {
      dst[i] = sat_add_word(dst[i], src[i]);
    } else {
      dst[i] |= src[i];
    }
    if (++word_in_row == kRowWords) word_in_row = 0;
  }
}

std::int64_t sum_i64_scalar(const std::int64_t* v, std::size_t n) {
  // Accumulate in unsigned so wrap-around is defined behavior.
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<std::uint64_t>(v[i]);
  }
  return static_cast<std::int64_t>(acc);
}

void threshold_mask_i64_scalar(const std::int64_t* v, std::size_t n,
                               std::int64_t threshold,
                               std::uint64_t* mask_words) {
  const std::size_t words = (n + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) mask_words[w] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] > threshold) {
      mask_words[i / 64] |= std::uint64_t{1} << (i % 64);
    }
  }
}

void gather_stride_i64_scalar(const std::int64_t* base,
                              std::size_t stride_words, std::size_t n,
                              std::int64_t* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = base[i * stride_words];
}

void dt_admit_i64_scalar(const std::int64_t* demand, const std::int64_t* limit,
                         const std::int64_t* queue_len, std::int64_t drain,
                         std::int64_t* accepted, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t room = limit[i] - queue_len[i];
    if (room < 0) room = 0;
    room += drain;
    accepted[i] = demand[i] < room ? demand[i] : room;
  }
}

double sum_f64_scalar(const double* v, std::size_t n) {
  // The pinned lane-then-tree DAG documented in simd.h: four serial
  // accumulator chains, a fixed tree combine, then a serial tail. The AVX2
  // path realizes the identical DAG, so results are byte-identical.
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  std::size_t i = 0;
  for (; i + kFoldLanes <= n; i += kFoldLanes) {
    acc0 += v[i];
    acc1 += v[i + 1];
    acc2 += v[i + 2];
    acc3 += v[i + 3];
  }
  double r = (acc0 + acc2) + (acc1 + acc3);
  for (; i < n; ++i) r += v[i];
  return r;
}

}  // namespace

const KernelTable& scalar_table() noexcept {
  static constexpr KernelTable kTable = {
      IsaPath::kScalar,
      tally_rows_u64_scalar,
      sum_i64_scalar,
      threshold_mask_i64_scalar,
      gather_stride_i64_scalar,
      dt_admit_i64_scalar,
      sum_f64_scalar,
  };
  return kTable;
}

}  // namespace msamp::util::simd::internal
