// util::simd — the runtime-dispatched SIMD kernel for the sampler's per-CPU
// counter read (§4.1): the one vector loop in the tree that pays for itself
// where it runs (docs/SIMD.md lists the kernels measured and retired).
//
// The dispatch layer detects CPU features once at startup (CPUID on x86) and
// routes the kernel through a function-pointer table to one of two
// implementations: scalar, compiled everywhere, or AVX2, compiled into x86
// builds and chosen when the CPU has it. The `MSAMP_SIMD` environment
// variable (`scalar|avx2|auto`) forces a path at startup; tests and benches
// use `force_path()` instead so they never mutate the environment.
//
// Determinism contract: the kernel produces byte-identical output on both
// paths. It is exact integer arithmetic, so cross-path identity is free; the
// scalar cells of scripts/check_dataset_determinism.sh and
// scripts/check_bench_determinism.sh enforce it end to end.
//
// Raw intrinsics live only in this subsystem; the msamp_lint rule
// `intrinsics-only-in-simd` flags `<immintrin.h>`/`<arm_neon.h>` includes and
// `_mm*`/`vld1q_*` identifiers anywhere else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace msamp::util::simd {

/// Instruction-set paths a kernel call can be routed to. `kScalar` is always
/// compiled; `kAvx2` exists only in x86 builds.
enum class IsaPath : std::uint8_t { kScalar = 0, kAvx2 = 1 };

/// Stable lowercase name for `p` ("scalar", "avx2") — the same spelling
/// `MSAMP_SIMD` accepts.
const char* path_name(IsaPath p) noexcept;

/// The path kernel calls currently route to (after detection, the
/// `MSAMP_SIMD` override, and any `force_path` call).
IsaPath active_path() noexcept;

/// The best path for this host ignoring overrides: compiled into the binary
/// and supported by the running CPU.
IsaPath detected_path() noexcept;

/// Every path compiled into the binary and supported by the running CPU,
/// in ascending IsaPath order. Always contains `kScalar`.
std::vector<IsaPath> available_paths();

/// Routes subsequent kernel calls to `p`. Returns false (and leaves the
/// active path unchanged) when `p` is not in `available_paths()`.
/// Thread-compatible: call before spawning workers, not concurrently with
/// kernel calls in flight.
bool force_path(IsaPath p) noexcept;

/// The raw `MSAMP_SIMD` value captured at first dispatch ("" when unset)
/// and whether it named an available path and was honored.
const char* env_request() noexcept;
bool env_honored() noexcept;

/// Word layout of one core::RawBucket row: kRowTallyWords counter words
/// followed by (kRowWords - kRowTallyWords) bitmap words. tally_rows_u64
/// folds a per-CPU array of such rows into `dst`: counter words
/// saturating-add (clamped to UINT64_MAX on overflow), bitmap words
/// bitwise-OR. `n_words` must be a multiple of kRowWords.
inline constexpr std::size_t kRowWords = 7;
inline constexpr std::size_t kRowTallyWords = 5;
void tally_rows_u64(std::uint64_t* dst, const std::uint64_t* src,
                    std::size_t n_words) noexcept;

}  // namespace msamp::util::simd
