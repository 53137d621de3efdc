// Scalar reference implementation of the util::simd kernel. This
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

}  // namespace

const KernelTable& scalar_table() noexcept {
  static constexpr KernelTable kTable = {
      IsaPath::kScalar,
      tally_rows_u64_scalar,
  };
  return kTable;
}

}  // namespace msamp::util::simd::internal
