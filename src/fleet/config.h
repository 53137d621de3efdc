// Configuration of the fleet-scale reproduction run: two regions, hourly
// SyncMillisampler collections over a day, paper-parameterized racks.
// Defaults are scaled down from the paper's 1000 racks/region so every
// figure regenerates in seconds; all knobs scale up.
#pragma once

#include <cstdint>
#include <string_view>

#include "analysis/burst_detect.h"
#include "analysis/loss_assoc.h"
#include "analysis/rack_classify.h"
#include "core/clock_model.h"
#include "net/shared_buffer.h"
#include "util/status.h"

namespace msamp::fleet {

/// Optional fabric stage upstream of the rack (§8.1: RegA-High racks also
/// contend in the fabric; its larger-buffer, faster-link ASICs drop a
/// little and smooth bursts before they reach the ToR downlinks).
struct FabricConfig {
  bool enabled = false;
  /// Aggregate rack uplink capacity (4 x 100G in the studied racks).
  double uplink_gbps = 400.0;
  /// Fraction of each server's per-ms arrivals buffered in the fabric and
  /// released the next millisecond (burst smoothing).
  double smoothing = 0.3;
};

/// Fleet experiment knobs.
struct FleetConfig {
  std::uint64_t seed = 42;

  // Scale (paper: ~1000 racks/region, 92 servers/rack, hourly runs for a
  // day, 1ms sampling over ~2s trimmed to ~1.85s).
  int racks_per_region = 96;
  int servers_per_rack = 92;
  int hours = 24;
  int samples_per_run = 700;  ///< 1ms samples per observation window
  int warmup_ms = 60;         ///< settle queues/rate factors before sampling

  // Execution.  Rack windows are simulated concurrently on a deterministic
  // pool (util::ThreadPool); any value here produces byte-identical
  // datasets, which is why `threads` is deliberately excluded from
  // fingerprint().  A positive value is used as given; 0 defers to the
  // MSAMP_THREADS environment variable, else all hardware cores.
  // fingerprint-exempt: execution detail — any thread count produces the
  // same bytes, so hashing it would needlessly re-key every disk cache.
  int threads = 0;  ///< concurrent windows; 0 = MSAMP_THREADS / all cores

  // Rack hardware (§3).
  double line_rate_gbps = 12.5;
  net::SharedBufferConfig buffer{};  // 16MB, 4 quadrants, alpha=1, 120KB ECN
  double rtt_ms = 0.1;
  std::int64_t mss = 1460;
  FabricConfig fabric{};

  // Measurement pipeline.
  int filter_cpus = 1;  ///< fluid path uses 1 vCPU per host (packet sim
                        ///< and tests exercise the full per-CPU machinery)
  core::ClockModelConfig clocks{};
  analysis::LossAssocConfig loss{};
  /// Busy-hour contention threshold splitting RegA-Typical from RegA-High.
  /// Calibrated for 92-server racks; scale it down with servers_per_rack.
  analysis::ClassifyConfig classify{};

  analysis::BurstDetectConfig burst_config() const {
    return {.line_rate_gbps = line_rate_gbps,
            .interval = sim::kMillisecond,
            .threshold_frac = 0.5};
  }

  /// Checks each serialized field against its range in fleet/wire.cc's
  /// field list; the error names the first field out of range.  Call it
  /// before fingerprint(), whose casts of a negative or NaN double are
  /// undefined.
  util::Status validate() const;

  /// Stable hash of the scale-relevant fields, used to validate the disk
  /// cache of a generated dataset.
  std::uint64_t fingerprint() const;

  /// The first serialized field whose bytes differ from `other`'s; empty
  /// when both describe the same day.  fingerprint() truncates doubles,
  /// so identity checks compare these bytes too.
  std::string_view differing_field(const FleetConfig& other) const;
};

}  // namespace msamp::fleet
