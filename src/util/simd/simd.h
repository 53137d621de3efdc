// util::simd — a header-only stub with one path, scalar.  No code in the
// tree dispatches on an instruction set (docs/PERFORMANCE.md, "No vector
// kernels"); the stub exists so that the benchmark profile's
// scalar-vs-active stage compiles, and that stage times scalar against
// scalar.
#pragma once

#include <cstdint>

namespace msamp::util::simd {

/// The one instruction-set path.
enum class IsaPath : std::uint8_t { kScalar = 0 };

/// "scalar".
inline const char* path_name(IsaPath) noexcept { return "scalar"; }

/// Always kScalar.
inline IsaPath active_path() noexcept { return IsaPath::kScalar; }

/// Accepts kScalar, the only path, and changes nothing.
inline bool force_path(IsaPath p) noexcept { return p == IsaPath::kScalar; }

}  // namespace msamp::util::simd
