// AVX2 kernel implementations (256-bit lanes, 4x u64/i64/f64 per vector).
// Compiled with -mavx2 only in this translation unit; the dispatcher checks
// CPUID before routing here.
#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "util/simd/simd_internal.h"

namespace msamp::util::simd::internal {
namespace {

inline std::uint64_t sat_add_word(std::uint64_t a, std::uint64_t b) noexcept {
  const std::uint64_t s = a + b;
  return s < a ? ~std::uint64_t{0} : s;
}

inline __m256i sat_add_epi64(__m256i a, __m256i b) noexcept {
  const __m256i sign =
      _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull));
  const __m256i sum = _mm256_add_epi64(a, b);
  const __m256i ovf = _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign),
                                         _mm256_xor_si256(sum, sign));
  return _mm256_or_si256(sum, ovf);
}

void tally_rows_u64_avx2(std::uint64_t* dst, const std::uint64_t* src,
                         std::size_t n_words) {
  // 4 words per vector against 7-word rows: the word phase of a vector
  // cycles with period 7 (4 and 7 are coprime, full cycle = 28 words).
  // kOrMask[p][j] is all-ones when word (p*4 + j) mod 7 lands on a bitmap
  // word (row position >= kRowTallyWords), selecting OR over sat-add.
  static constexpr std::uint64_t kO = ~std::uint64_t{0};
  alignas(32) static constexpr std::uint64_t kOrMask[kRowWords][4] = {
      {0, 0, 0, 0},    // words 0,1,2,3
      {0, kO, kO, 0},  // words 4,5,6,0
      {0, 0, 0, 0},    // words 1,2,3,4
      {kO, kO, 0, 0},  // words 5,6,0,1
      {0, 0, 0, kO},   // words 2,3,4,5
      {kO, 0, 0, 0},   // words 6,0,1,2
      {0, 0, kO, kO},  // words 3,4,5,6
  };
  std::size_t i = 0;
  // Full 28-word cycle (lcm(4, 7)) unrolled: every vector's OR-word set is
  // then a compile-time constant, so the select is an immediate
  // vpblendd instead of a mask load + vpblendvb, and the two all-tally
  // phases skip the OR/blend entirely.
  const auto step = [&](std::size_t off, auto imm) {
    constexpr int kImm = decltype(imm)::value;
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + off));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + off));
    __m256i t = sat_add_epi64(d, s);
    if constexpr (kImm != 0) {
      t = _mm256_blend_epi32(t, _mm256_or_si256(d, s), kImm);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + off), t);
  };
  for (; i + 28 <= n_words; i += 28) {
    step(0, std::integral_constant<int, 0x00>{});   // words 0,1,2,3
    step(4, std::integral_constant<int, 0x3C>{});   // words 4,[5,6],0
    step(8, std::integral_constant<int, 0x00>{});   // words 1,2,3,4
    step(12, std::integral_constant<int, 0x0F>{});  // words [5,6],0,1
    step(16, std::integral_constant<int, 0xC0>{});  // words 2,3,4,[5]
    step(20, std::integral_constant<int, 0x03>{});  // words [6],0,1,2
    step(24, std::integral_constant<int, 0xF0>{});  // words 3,4,[5,6]
  }
  std::size_t phase = 0;
  for (; i + 4 <= n_words; i += 4) {
    __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i m =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(kOrMask[phase]));
    const __m256i tallied =
        _mm256_blendv_epi8(sat_add_epi64(d, s), _mm256_or_si256(d, s), m);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), tallied);
    if (++phase == kRowWords) phase = 0;
  }
  for (; i < n_words; ++i) {
    if (i % kRowWords < kRowTallyWords) {
      dst[i] = sat_add_word(dst[i], src[i]);
    } else {
      dst[i] |= src[i];
    }
  }
}

std::int64_t sum_i64_avx2(const std::int64_t* v, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(
        acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i)));
  }
  std::uint64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) total += static_cast<std::uint64_t>(v[i]);
  return static_cast<std::int64_t>(total);
}

void threshold_mask_i64_avx2(const std::int64_t* v, std::size_t n,
                             std::int64_t threshold,
                             std::uint64_t* mask_words) {
  const __m256i thr = _mm256_set1_epi64x(threshold);
  const std::size_t words = (n + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) mask_words[w] = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    const int bits =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(x, thr)));
    mask_words[i / 64] |= static_cast<std::uint64_t>(bits) << (i % 64);
  }
  for (; i < n; ++i) {
    if (v[i] > threshold) {
      mask_words[i / 64] |= std::uint64_t{1} << (i % 64);
    }
  }
}

void gather_stride_i64_avx2(const std::int64_t* base, std::size_t stride_words,
                            std::size_t n, std::int64_t* out) {
  const long long s = static_cast<long long>(stride_words);
  const __m256i idx = _mm256_setr_epi64x(0, s, 2 * s, 3 * s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i g = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(base + i * stride_words), idx, 8);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), g);
  }
  for (; i < n; ++i) out[i] = base[i * stride_words];
}

void dt_admit_i64_avx2(const std::int64_t* demand, const std::int64_t* limit,
                       const std::int64_t* queue_len, std::int64_t drain,
                       std::int64_t* accepted, std::size_t n) {
  const __m256i drain_v = _mm256_set1_epi64x(drain);
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i dem =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(demand + i));
    const __m256i lim =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(limit + i));
    const __m256i ql =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(queue_len + i));
    __m256i room = _mm256_sub_epi64(lim, ql);
    room = _mm256_blendv_epi8(room, zero, _mm256_cmpgt_epi64(zero, room));
    room = _mm256_add_epi64(room, drain_v);
    const __m256i acc =
        _mm256_blendv_epi8(dem, room, _mm256_cmpgt_epi64(dem, room));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(accepted + i), acc);
  }
  for (; i < n; ++i) {
    std::int64_t room = limit[i] - queue_len[i];
    if (room < 0) room = 0;
    room += drain;
    accepted[i] = demand[i] < room ? demand[i] : room;
  }
}

double sum_f64_avx2(const double* v, std::size_t n) {
  // Pinned DAG, AVX2 realization: one vaddpd per step keeps each of the
  // four lanes a serial chain. Horizontal combine: low128 + high128 yields
  // {acc0+acc2, acc1+acc3}; the final scalar add is the tree root.
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + kFoldLanes <= n; i += kFoldLanes) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(v + i));
  }
  const __m128d pair =
      _mm_add_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
  double r = _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
  for (; i < n; ++i) r += v[i];
  return r;
}

}  // namespace

const KernelTable& avx2_table() noexcept {
  static constexpr KernelTable kTable = {
      IsaPath::kAvx2,
      tally_rows_u64_avx2,
      sum_i64_avx2,
      threshold_mask_i64_avx2,
      gather_stride_i64_avx2,
      dt_admit_i64_avx2,
      sum_f64_avx2,
  };
  return kTable;
}

}  // namespace msamp::util::simd::internal
