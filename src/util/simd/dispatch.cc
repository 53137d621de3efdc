// util::simd dispatcher: one-time CPU feature detection, the MSAMP_SIMD
// environment override, and the function-pointer indirection the public
// kernel entry point goes through.
//
// MSAMP_SIMD is read exactly once, at first dispatch; like MSAMP_THREADS it
// is a startup knob, not a runtime control (see docs/REPRODUCING.md). Tests
// and benches switch paths with force_path() instead of mutating the
// environment.
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "util/simd/simd_internal.h"

namespace msamp::util::simd {
namespace {

using internal::KernelTable;

struct DispatchState {
  const KernelTable* active = nullptr;
  IsaPath detected = IsaPath::kScalar;
  std::string env;
  bool env_honored = true;
};

// The table for `p` when it is compiled into the binary and the running CPU
// supports it, else nullptr.
const KernelTable* table_for(IsaPath p) noexcept {
  switch (p) {
    case IsaPath::kScalar:
      return &internal::scalar_table();
    case IsaPath::kAvx2:
#if defined(MSAMP_SIMD_HAVE_AVX2)
      return __builtin_cpu_supports("avx2") != 0 ? &internal::avx2_table()
                                                  : nullptr;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

bool parse_path(const char* s, IsaPath* out) noexcept {
  if (std::strcmp(s, "scalar") == 0) {
    *out = IsaPath::kScalar;
  } else if (std::strcmp(s, "avx2") == 0) {
    *out = IsaPath::kAvx2;
  } else {
    return false;
  }
  return true;
}

DispatchState& state() {
  static DispatchState s = [] {
    DispatchState st;
    st.detected = table_for(IsaPath::kAvx2) != nullptr ? IsaPath::kAvx2
                                                       : IsaPath::kScalar;
    IsaPath chosen = st.detected;
    // msamp-lint: allow(nondet-getenv) startup-only SIMD path override,
    // documented in docs/REPRODUCING.md; every path is byte-identical.
    if (const char* env = std::getenv("MSAMP_SIMD")) {
      st.env = env;
      IsaPath forced;
      if (st.env == "auto" || st.env.empty()) {
        st.env_honored = true;
      } else if (parse_path(env, &forced) && table_for(forced) != nullptr) {
        chosen = forced;
        st.env_honored = true;
      } else {
        st.env_honored = false;  // unknown or unavailable: keep detected
      }
    }
    st.active = table_for(chosen);
    return st;
  }();
  return s;
}

std::atomic<const KernelTable*> g_forced{nullptr};

inline const KernelTable& active_table() noexcept {
  if (const KernelTable* t = g_forced.load(std::memory_order_acquire)) {
    return *t;
  }
  return *state().active;
}

}  // namespace

const char* path_name(IsaPath p) noexcept {
  switch (p) {
    case IsaPath::kScalar:
      return "scalar";
    case IsaPath::kAvx2:
      return "avx2";
  }
  return "unknown";
}

IsaPath active_path() noexcept { return active_table().path; }

IsaPath detected_path() noexcept { return state().detected; }

std::vector<IsaPath> available_paths() {
  std::vector<IsaPath> out;
  for (IsaPath p : {IsaPath::kScalar, IsaPath::kAvx2}) {
    if (table_for(p) != nullptr) out.push_back(p);
  }
  return out;
}

bool force_path(IsaPath p) noexcept {
  const KernelTable* table = table_for(p);
  if (table == nullptr) return false;
  state();  // ensure detection ran so force/unforce is well ordered
  g_forced.store(table, std::memory_order_release);
  return true;
}

const char* env_request() noexcept { return state().env.c_str(); }

bool env_honored() noexcept { return state().env_honored; }

void tally_rows_u64(std::uint64_t* dst, const std::uint64_t* src,
                    std::size_t n_words) noexcept {
  active_table().tally_rows_u64(dst, src, n_words);
}

}  // namespace msamp::util::simd
