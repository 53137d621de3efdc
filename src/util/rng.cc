#include "util/rng.h"

#include <cmath>
#include <numbers>

namespace msamp::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

Rng Rng::fork(std::uint64_t salt) noexcept {
  return Rng(next() ^ (salt * 0x9e3779b97f4a7c15ULL) ^ 0xd1b54a32d192ed03ULL);
}

std::uint64_t Rng::uniform_int(std::uint64_t n) noexcept {
  // Lemire's multiply-shift rejection method for unbiased bounded draws.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0ULL - n) % n;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() noexcept {
  // Box-Muller; draw u1 away from zero to keep log() finite.
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double rate) noexcept {
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

double Rng::pareto(double lo, double hi, double alpha) noexcept {
  // Inverse-CDF sampling of the bounded Pareto distribution.
  const double u = uniform();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  const double x = -(u * ha - u * la - ha) / (ha * la);
  return std::pow(1.0 / x, 1.0 / alpha);
}

std::uint64_t Rng::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    // Knuth's product-of-uniforms method.
    const double limit = std::exp(-mean);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction for large means.
  const double x = normal(mean, std::sqrt(mean));
  return x <= 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

std::size_t Rng::zipf(std::size_t n, double s) noexcept {
  if (n <= 1) return 0;
  if (s <= 0.0) return static_cast<std::size_t>(uniform_int(n));
  // Inverse-CDF on the continuous approximation of the Zipf pmf; adequate
  // for workload skew (we need plausibility, not exact Zipf moments).
  const double nd = static_cast<double>(n);
  if (s == 1.0) {
    const double h = std::log(nd + 1.0);
    const double x = std::exp(uniform() * h) - 1.0;
    auto r = static_cast<std::size_t>(x);
    return r >= n ? n - 1 : r;
  }
  const double e = 1.0 - s;
  const double h = (std::pow(nd + 1.0, e) - 1.0) / e;
  const double x = std::pow(uniform() * h * e + 1.0, 1.0 / e) - 1.0;
  auto r = static_cast<std::size_t>(x);
  return r >= n ? n - 1 : r;
}

}  // namespace msamp::util
