// 128-bit direct-bitmap flow sketch (Estan-Varghese linear counting),
// exactly as Millisampler uses per time bucket (§4.2): stateless, precise
// up to about a dozen concurrent connections, saturating around 500.
#pragma once

#include <cstdint>

namespace msamp::core {

/// A 128-bit bitmap counting distinct flow ids.
class FlowSketch {
 public:
  /// Number of bits in the sketch.
  static constexpr int kBits = 128;

  /// Marks a flow as active (hashes the id to one of 128 bits).
  void add(std::uint64_t flow_id) noexcept;

  /// Merges another sketch (bitwise OR) — used when aggregating per-CPU
  /// sketches for the same time bucket.
  void merge(const FlowSketch& other) noexcept {
    words_[0] |= other.words_[0];
    words_[1] |= other.words_[1];
  }

  /// Linear-counting estimate of the number of distinct flows added:
  /// n ≈ -m * ln(zero_bits / m).  When every bit is set the estimate
  /// saturates at -m*ln(1/m) ≈ 621 (the paper's "around 500" regime).
  /// Reads a table of the 129 possible values, computed on first use.
  double estimate() const noexcept;

  /// Number of set bits.
  int popcount() const noexcept;

  bool empty() const noexcept { return words_[0] == 0 && words_[1] == 0; }
  void clear() noexcept { words_[0] = words_[1] = 0; }

  /// Raw word access for serialization.
  std::uint64_t word(int i) const noexcept { return words_[i & 1]; }
  void set_words(std::uint64_t w0, std::uint64_t w1) noexcept {
    words_[0] = w0;
    words_[1] = w1;
  }

 private:
  std::uint64_t words_[2] = {0, 0};
};

}  // namespace msamp::core
