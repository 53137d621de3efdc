// Millisecond-granularity fluid simulation of one rack for one observation
// window.  Same admission arithmetic as net::SharedBuffer — the configured
// net::BufferSharingPolicy caps each queue's shared usage (Dynamic
// Threshold in the deployed fleet) — applied per 1ms step per queue, with:
//   * per-queue drain at server line rate;
//   * static-threshold ECN marking (fraction of the step the queue spent
//     above 120KB);
//   * drops of arrivals exceeding the DT limit, fed back to the workload
//     (rate cut + retransmission re-arrival a few ms later);
//   * every delivered byte pushed through a real core::TcFilter, so the
//     output is an honest SyncMillisampler run, trimmed by the same rule
//     (core::GridTrim) and aligned by the same core::align_series as the
//     packet-level path's combine_runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/sync_controller.h"
#include "core/tc_filter.h"
#include "fleet/config.h"
#include "net/buffer_policy.h"
#include "util/rng.h"
#include "workload/burst_process.h"
#include "workload/placement.h"

namespace msamp::fleet {

/// Byte totals of one rack window.
struct FluidRackTotals {
  std::int64_t offered_bytes = 0;   ///< bytes offered to the ToR downlinks
  std::int64_t delivered_bytes = 0; ///< bytes delivered to servers
  std::int64_t drop_bytes = 0;      ///< ToR congestion discards
  std::int64_t ecn_bytes = 0;       ///< CE-marked delivered bytes
  std::int64_t fabric_drop_bytes = 0;  ///< upstream fabric discards
};

/// Output of one rack window: its totals and every server aligned.
struct FluidRackResult : FluidRackTotals {
  core::SyncRun sync;               ///< aligned per-server measurement
};

/// Fluid simulation of a rack observation window.  Like a loaded
/// Millisampler filter that each run's `enable` only clears (§4.1), one
/// rack object serves window after window: `arm` resets all window state,
/// while the TcFilters, the step scratch and the result storage persist,
/// so re-arming for windows of one shape allocates nothing large.
///
/// A window is simulate()d once; then each server's filter is read and
/// aligned onto the rack's grid on demand (align()), so a caller can
/// analyse one server at a time and hold a single aligned series, as the
/// fleet runner does.  run() is both steps with every server aligned into
/// one SyncRun.
class FluidRack {
 public:
  /// An unarmed rack; arm() it before simulate() or run().
  FluidRack() = default;

  /// Constructs, then arms (see arm()).
  FluidRack(const workload::RackMeta& rack, const FleetConfig& config,
            int hour, util::Rng rng);

  /// Prepares one window of `rack`: `hour` selects the diurnal
  /// multiplier; `rng` seeds all randomness.  The next run() equals a
  /// fresh rack constructed with the same arguments.
  void arm(const workload::RackMeta& rack, const FleetConfig& config,
           int hour, util::Rng rng);

  /// Runs the warm-up and the sampled steps, then fixes the window's grid
  /// (core::GridTrim over the filters' runs).  Returns the byte totals,
  /// valid until the next arm().  Call once per arm().
  const FluidRackTotals& simulate();

  /// Samples on the grid simulate() fixed: 0 when none survives the trim.
  std::size_t num_samples() const noexcept { return num_samples_; }

  /// Reads server `s`'s filter and aligns it onto the grid into `out`
  /// (num_samples() samples, all zero for a host that never started),
  /// reusing its capacity.  After simulate().
  void align(int s, std::vector<core::BucketSample>& out);

  /// simulate(), then every server aligned into the result's SyncRun
  /// (hosts 0..n-1; no series when the grid is empty).  The result stays
  /// valid until the next arm().  Call once per arm().
  const FluidRackResult& run();

 private:
  struct Queue {
    std::int64_t len = 0;
    std::int64_t retx_part = 0;  ///< bytes of `len` that are retransmissions
    std::int64_t ecn_part = 0;   ///< bytes of `len` carrying CE
  };

  void step(sim::SimTime now, bool sampling, FluidRackTotals* result);

  FleetConfig config_;  // by value: callers may pass temporaries
  util::Rng rng_{0};
  int num_servers_ = 0;
  std::int64_t drain_per_ms_ = 0;
  std::int64_t reserve_ = 0;
  std::int64_t shared_capacity_per_quadrant_ = 0;
  double alpha_ = 0.0;
  std::int64_t ecn_threshold_ = 0;
  /// The sharing discipline charging queues for shared-pool usage.  All
  /// policy state (e.g. kBurstAbsorbDt's arrival history) lives inside.
  std::unique_ptr<net::BufferSharingPolicy> policy_;
  std::vector<int> queues_per_quadrant_;

  std::vector<workload::BurstProcess> processes_;
  std::vector<Queue> queues_;
  std::vector<std::int64_t> shared_used_;  ///< per quadrant
  /// Sub-ms transient occupancy per quadrant: packets of every active
  /// queue interleave within the millisecond, so a slice of each queue's
  /// arrivals transiently occupies shared buffer even when the ms-average
  /// backlog is zero.  This is what couples rack contention to the DT
  /// limit every queue actually experiences (Figure 16's mechanism).
  std::vector<std::int64_t> quad_transient_;
  /// Which servers were bursting last step (per-quadrant collision counts).
  std::vector<std::uint8_t> bursting_prev_;
  /// Fabric stage: bytes buffered upstream per server, released next step.
  std::vector<std::int64_t> fabric_carry_;
  std::vector<core::TcFilter> filters_;
  std::vector<sim::SimDuration> clock_offsets_;

  // step() scratch, sized by arm(): per quadrant, then per server.
  std::vector<std::int64_t> shared_snapshot_;
  std::vector<std::int64_t> new_transient_;
  std::vector<int> quad_bursting_;
  std::vector<workload::StepDemand> demands_;

  sim::SimTime grid_start_ = -1;
  std::size_t num_samples_ = 0;
  core::RunRecord read_;  ///< align()'s read of one filter
  FluidRackResult result_;
};

}  // namespace msamp::fleet
