#include "core/flow_sketch.h"

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>

namespace msamp::core {
namespace {

// Finalizer from MurmurHash3; good avalanche for sequential flow ids.
std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

using EstimateTable = std::array<double, FlowSketch::kBits + 1>;

/// The linear-counting estimate for every zero-bit count.  A plain
/// function, not a lambda (which is implicitly constexpr): the compiler
/// must not fold the table with its own log, so the entries are libm's
/// run-time values, the ones a direct call returned.
EstimateTable estimate_table() {
  constexpr int kBits = FlowSketch::kBits;
  EstimateTable table{};
  for (int zeros = 0; zeros <= kBits; ++zeros) {
    table[static_cast<std::size_t>(zeros)] =
        zeros == 0
            // Fully saturated: report the maximum resolvable estimate.
            ? -static_cast<double>(kBits) * std::log(1.0 / kBits)
            : -static_cast<double>(kBits) *
                  std::log(static_cast<double>(zeros) / kBits);
  }
  return table;
}

}  // namespace

void FlowSketch::add(std::uint64_t flow_id) noexcept {
  const std::uint64_t h = mix(flow_id);
  const unsigned bit = static_cast<unsigned>(h & 127u);
  words_[bit >> 6] |= 1ULL << (bit & 63u);
}

int FlowSketch::popcount() const noexcept {
  return std::popcount(words_[0]) + std::popcount(words_[1]);
}

double FlowSketch::estimate() const noexcept {
  static const EstimateTable kEstimates = estimate_table();
  return kEstimates[static_cast<std::size_t>(kBits - popcount())];
}

}  // namespace msamp::core
