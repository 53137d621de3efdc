// Internal plumbing shared by the util::simd dispatcher and the scalar and
// AVX2 kernel translation units. Not installed; include only from
// src/util/simd/.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/simd/simd.h"

namespace msamp::util::simd::internal {

/// One function pointer per path-specific kernel. Each translation unit
/// fills a table with its implementations; the dispatcher picks one table at
/// startup and the public entry points in simd.h jump through it.
struct KernelTable {
  IsaPath path;
  void (*tally_rows_u64)(std::uint64_t*, const std::uint64_t*, std::size_t);
};

/// Always present: the reference implementation, compiled with
/// auto-vectorization disabled so it stays honestly scalar.
const KernelTable& scalar_table() noexcept;

#if defined(MSAMP_SIMD_HAVE_AVX2)
const KernelTable& avx2_table() noexcept;
#endif

}  // namespace msamp::util::simd::internal
