// Structured rack diagnosis: the §1/§4.2 troubleshooting workflow
// ("identifying difficult traffic patterns, and troubleshooting the
// interactions between application behavior and the network") as a library
// function, and the one analysis of a whole SyncMillisampler run.  Run once
// at the caller's line rate and interval, it reports:
//
//   * the contention series, its summary and the worst millisecond;
//   * per-server bursts and run stats, with an incast/fan-out
//     classification from the connection sketch (§4.2: "more connections
//     (heavy incast) as opposed to more traffic on fewer connections");
//   * measurement artifacts: kernel-stall signatures (§4.6 — a silent gap
//     followed by a catch-up bucket above line rate), which would
//     otherwise read as genuine bursts.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/burst_detect.h"
#include "analysis/burst_stats.h"
#include "analysis/contention.h"
#include "analysis/loss_assoc.h"
#include "core/sync_controller.h"

namespace msamp::analysis {

/// How a server's in-burst connection count classifies its traffic.
enum class TrafficPattern {
  kIdle,        ///< no bursts
  kFanOut,      ///< bursts carried by a handful of fat connections
  kHeavyIncast, ///< bursts carried by tens+ of simultaneous connections
};

/// Per-server findings.
struct ServerDiagnosis {
  std::size_t server = 0;
  TrafficPattern pattern = TrafficPattern::kIdle;
  std::vector<Burst> bursts;
  ServerRunStats stats;
  std::size_t lossy_bursts = 0;
  /// Sample indices where a §4.6 stall artifact was detected.
  std::vector<std::size_t> stall_artifacts;
};

/// Whole-run findings.
struct RackDiagnosis {
  std::vector<int> contention;  ///< bursty servers at each sample
  ContentionSummary summary;    ///< of `contention`; its max is the worst
  std::size_t worst_sample = 0; ///< first sample at `summary.max`
  std::vector<ServerDiagnosis> servers;

  /// Servers whose lossy-burst count is highest (<= 5, none lossless):
  /// by count descending, then by server index ascending.
  std::vector<std::size_t> loss_hotspots;
  /// True if any server shows a stall artifact.
  bool measurement_artifacts = false;
};

/// Runs the full diagnosis, every step at `burst`'s line rate and interval.
RackDiagnosis diagnose(const core::SyncRun& run,
                       const BurstDetectConfig& burst = {},
                       const LossAssocConfig& loss = {});

/// Stall-artifact scan of one series at `burst`'s line rate and interval;
/// exposed for tests.  Returns the sample indices of catch-up spikes.
std::vector<std::size_t> find_stall_artifacts(
    std::span<const core::BucketSample> series, const BurstDetectConfig& burst);

}  // namespace msamp::analysis
