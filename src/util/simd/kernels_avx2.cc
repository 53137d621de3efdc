// AVX2 kernel implementation (256-bit lanes, 4x u64 per vector).
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

}  // namespace

const KernelTable& avx2_table() noexcept {
  static constexpr KernelTable kTable = {
      IsaPath::kAvx2,
      tally_rows_u64_avx2,
  };
  return kTable;
}

}  // namespace msamp::util::simd::internal
