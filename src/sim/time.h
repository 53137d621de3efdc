// Simulation time: 64-bit signed nanoseconds since the start of the
// simulation.  All layers (packet sim, fluid sim, sampler) share this unit
// so that Millisampler's bucket arithmetic is identical everywhere.
//
// The only sanctioned notion of time: msamp_lint's nondet-time rule bans
// time()/std::chrono wall clocks everywhere but this header
// (docs/STATIC_ANALYSIS.md) — simulated output must never depend on when
// or how fast the host runs.
#pragma once

#include <cstdint>
#include <limits>

namespace msamp::sim {

/// Nanoseconds since simulation start.
using SimTime = std::int64_t;

/// Duration in nanoseconds.
using SimDuration = std::int64_t;

inline constexpr SimDuration kNanosecond = 1;
inline constexpr SimDuration kMicrosecond = 1'000;
inline constexpr SimDuration kMillisecond = 1'000'000;
inline constexpr SimDuration kSecond = 1'000'000'000;

/// Converts a duration to (fractional) milliseconds, for reporting.
constexpr double to_ms(SimDuration d) noexcept {
  return static_cast<double>(d) / static_cast<double>(kMillisecond);
}

/// Converts a duration to (fractional) seconds, for reporting.
constexpr double to_sec(SimDuration d) noexcept {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

/// Bytes transferable in `d` at `gbps` gigabits per second.
constexpr double bytes_in(SimDuration d, double gbps) noexcept {
  return gbps * 1e9 / 8.0 * to_sec(d);
}

/// A nonnegative `bytes` truncated to a whole byte count, saturating at
/// INT64_MAX.  A byte threshold derived from a line rate and an interval
/// can pass INT64_MAX, where a plain cast is undefined; saturated, it is a
/// threshold no counter exceeds.
constexpr std::int64_t byte_count(double bytes) noexcept {
  return bytes < 0x1p63 ? static_cast<std::int64_t>(bytes)
                        : std::numeric_limits<std::int64_t>::max();
}

/// Time to serialize `bytes` at `gbps` gigabits per second (rounded to the
/// nearest nanosecond; plain truncation would turn 960.0ns into 959ns when
/// the division lands a hair below the exact value).
constexpr SimDuration serialize_time(std::int64_t bytes, double gbps) noexcept {
  return static_cast<SimDuration>(static_cast<double>(bytes) * 8.0 /
                                      (gbps * 1e9) * 1e9 +
                                  0.5);
}

}  // namespace msamp::sim
