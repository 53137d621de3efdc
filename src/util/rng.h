// Deterministic random number generation for all simulators.
//
// Every experiment in this repository is seeded; nothing reads the wall
// clock or std::random_device.  Rng wraps a xoshiro256++ generator with the
// distributions the workload models need (uniform, normal, lognormal,
// exponential, Pareto, Zipf, Poisson).
//
// This is the only sanctioned randomness source: msamp_lint's
// nondet-random rule bans rand()/random_device everywhere else, and these
// implementation files are the rule's sole path exemption
// (docs/STATIC_ANALYSIS.md).
#pragma once

#include <cstdint>
#include <vector>

namespace msamp::util {

/// Counter-free splittable PRNG (xoshiro256++) with distribution helpers.
///
/// Deliberately not std::mt19937: we want cheap construction (fleet code
/// creates one per server) and stable cross-platform streams.  The draws
/// the fluid step makes every server-millisecond (next, uniform,
/// bernoulli) are defined here so they inline into their callers; the
/// per-event distributions live in rng.cc.
class Rng {
 public:
  /// Seeds the state via splitmix64 so that nearby seeds give independent
  /// streams.
  explicit Rng(std::uint64_t seed) noexcept;

  /// Next raw 64-bit value.
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Derives an independent generator; `salt` distinguishes children created
  /// from the same parent state.
  Rng fork(std::uint64_t salt) noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    // 53 random mantissa bits -> [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t uniform_int(std::uint64_t n) noexcept;

  /// True with probability p (clamped to [0, 1]).  A certain outcome
  /// draws nothing.
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Standard normal via Box-Muller (no cached spare; simple and stateless).
  double normal() noexcept;

  /// Normal with the given mean / standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Lognormal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma) noexcept;

  /// Exponential with the given rate (mean 1/rate).
  double exponential(double rate) noexcept;

  /// Bounded Pareto on [lo, hi] with tail index alpha.
  double pareto(double lo, double hi, double alpha) noexcept;

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation for large ones).
  std::uint64_t poisson(double mean) noexcept;

  /// Zipf-distributed rank in [0, n) with skew s (s = 0 is uniform).
  /// Uses rejection-inversion; O(1) per draw after O(1) setup per call.
  std::size_t zipf(std::size_t n, double s) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_int(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace msamp::util
