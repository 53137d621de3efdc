// util::simd — runtime-dispatched SIMD kernels for the sampler, fluid-rack,
// and burst-detection hot paths.
//
// The dispatch layer detects CPU features once at startup (CPUID on x86) and
// routes every kernel through a function-pointer table to one of two
// implementations: scalar, compiled everywhere, or AVX2, compiled into x86
// builds and chosen when the CPU has it. The `MSAMP_SIMD` environment
// variable (`scalar|avx2|auto`) forces a path at startup; tests and benches
// use `force_path()` instead so they never mutate the environment.
//
// Determinism contract: every kernel below produces byte-identical output on
// both paths. The integer kernels are exact, so cross-path identity is free;
// the double fold `sum_f64` pins a fixed-width lane-then-tree addition DAG
// (see docs/SIMD.md) that the AVX2 implementation must reproduce. The
// scalar cells of scripts/check_dataset_determinism.sh and
// scripts/check_bench_determinism.sh enforce the whole contract end to end.
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

// ---------------------------------------------------------------------------
// u64 bucket tally (core::TcFilter per-CPU counter rows).
// ---------------------------------------------------------------------------

/// Word layout of one core::RawBucket row: kRowTallyWords counter words
/// followed by (kRowWords - kRowTallyWords) bitmap words. tally_rows_u64
/// folds a per-CPU array of such rows into `dst`: counter words
/// saturating-add (clamped to UINT64_MAX on overflow), bitmap words
/// bitwise-OR. `n_words` must be a multiple of kRowWords.
inline constexpr std::size_t kRowWords = 7;
inline constexpr std::size_t kRowTallyWords = 5;
void tally_rows_u64(std::uint64_t* dst, const std::uint64_t* src,
                    std::size_t n_words) noexcept;

// ---------------------------------------------------------------------------
// i64 scan kernels (analysis::detect_bursts, fleet::FluidRack).
// ---------------------------------------------------------------------------

/// Sum of v[0..n) mod 2^64 (two's-complement wrap, no UB).
std::int64_t sum_i64(const std::int64_t* v, std::size_t n) noexcept;

/// Writes ceil(n/64) mask words: bit i of the mask is set iff
/// v[i] > threshold (strict). Bits at positions >= n are zero.
void threshold_mask_i64(const std::int64_t* v, std::size_t n,
                        std::int64_t threshold,
                        std::uint64_t* mask_words) noexcept;

/// A maximal run of consecutive set bits in a threshold mask.
struct Run {
  std::size_t start = 0;
  std::size_t len = 0;
};

/// Extracts all maximal runs of set bits from `mask_words` covering bit
/// positions [0, n). Path-independent by construction (one shared scalar
/// implementation over the mask words).
std::vector<Run> extract_runs(const std::uint64_t* mask_words, std::size_t n);

/// out[i] = base[i * stride_words], i in [0, n) — strided column gather out
/// of an array-of-structs (e.g. BucketSample::in_bytes).
void gather_stride_i64(const std::int64_t* base, std::size_t stride_words,
                       std::size_t n, std::int64_t* out) noexcept;

/// Element-wise DT admission arithmetic over rack queue arrays:
///   accepted[i] = min(demand[i], max(limit[i] - queue_len[i], 0) + drain)
void dt_admit_i64(const std::int64_t* demand, const std::int64_t* limit,
                  const std::int64_t* queue_len, std::int64_t drain,
                  std::int64_t* accepted, std::size_t n) noexcept;

// ---------------------------------------------------------------------------
// Canonical double fold (util::stats::canonical_sum backend).
// ---------------------------------------------------------------------------

/// Number of independent accumulator lanes in the pinned fold DAG.
inline constexpr std::size_t kFoldLanes = 4;

/// Fixed-width lane-then-tree fold over v[0..n), byte-identical on both
/// paths. The pinned DAG (W = kFoldLanes):
///   lane j accumulates serially:  acc[j] += v[W*i + j]
///   tree combine:                 r = (acc[0] + acc[2]) + (acc[1] + acc[3])
///   tail (n % W trailing values): r += v[k], serially, left to right
/// Both implementations must realize exactly this DAG; see docs/SIMD.md for
/// the AVX2 correspondence proof obligation.
double sum_f64(const double* v, std::size_t n) noexcept;

}  // namespace msamp::util::simd
