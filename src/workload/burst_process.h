// Per-server millisecond-granularity traffic generator with closed-loop
// feedback, used by the fleet-scale fluid simulator.
//
// Each server alternates between background traffic and bursts (arrivals ~
// Poisson, lengths ~ lognormal, offered intensity ~ uniform, all from the
// task's TrafficProfile).  An aggregate "rate factor" stands in for the
// combined DCTCP behavior of the server's senders:
//
//   * ECN marks scale the factor down proportionally to the marked
//     fraction, weighted by the task's adaptivity (the §8.2 mechanism that
//     lets long bursts adapt while mid-length ones overflow first);
//   * drops halve the factor and schedule the dropped bytes for
//     re-arrival a few milliseconds later as retransmissions (which is
//     what Millisampler's in_retx counter observes, §4.6);
//   * heavy incast imposes a demand floor — with many senders, even one
//     congestion window each exceeds the queue's drain rate (§3, §8.2).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "core/flow_sketch.h"
#include "util/rng.h"
#include "workload/task.h"

namespace msamp::workload {

/// Environment parameters for a burst process.
struct BurstProcessConfig {
  double line_rate_gbps = 12.5;
  double rtt_ms = 0.1;          ///< in-rack RTT, for the incast floor
  std::int64_t mss = 1460;
  double diurnal = 1.0;         ///< hour-of-day multiplier
  double intensity = 1.0;       ///< rack load scalar (scales burst rate)
};

/// Demand produced for one 1ms step.
struct StepDemand {
  std::int64_t bytes = 0;       ///< offered toward the ToR queue
  std::int64_t retx_bytes = 0;  ///< portion of `bytes` that is retransmitted data
  double conns = 0.0;           ///< ground-truth active connection count
  std::uint64_t sketch[2] = {0, 0};  ///< flow sketch of the active set
  bool in_burst = false;        ///< ground truth (analysis uses measured util)
  /// How smoothly the senders pace packets (the task's adaptivity):
  /// adapted DCTCP senders spread packets across the RTT and rarely
  /// collide in the buffer, oblivious incast clumps do.
  double smoothness = 0.5;
};

/// The generator.  One instance per server per observation window.
///
/// step() and on_feedback() run once per server-millisecond of the fluid
/// step, so they are defined here, where the rack's per-server loop can
/// inline them; the rare paths (a burst start, a flow-set rebuild, a
/// retransmission's lag draw) stay in burst_process.cc.
class BurstProcess {
 public:
  /// `flow_base` makes connection ids unique across servers.
  BurstProcess(const TrafficProfile& profile, const BurstProcessConfig& config,
               std::uint64_t flow_base, util::Rng rng);

  /// Starts an observation window: draws whether the server is in its
  /// active regime, resets transient state (but not the persistent rate
  /// factor of adaptive tasks).
  void begin_run();

  /// Advances one millisecond and returns the offered demand.
  StepDemand step() {
    // 1. Apply last step's congestion feedback (one-step lag ~ several RTTs).
    if (pending_marked_ > 0.0) {
      rate_factor_ *=
          1.0 - profile_.adaptivity * std::min(pending_marked_, 1.0) / 2.0;
    }
    if (pending_dropped_ > 0) schedule_retransmission();
    if (pending_marked_ <= 0.0) {
      // Additive recovery toward full offered rate.
      rate_factor_ += 0.02 + 0.10 * profile_.adaptivity;
    }
    pending_marked_ = 0.0;
    rate_factor_ = std::clamp(rate_factor_, 0.02, 1.0);

    // 2. Burst state machine.
    if (burst_remaining_ms_ > 0) {
      --burst_remaining_ms_;
      if (burst_remaining_ms_ == 0) rebuild_flow_set(profile_.conns_outside);
    } else if (rng_.bernoulli(start_p_)) {
      start_burst();
    }
    const bool bursting = burst_remaining_ms_ > 0;

    // 3. Offered demand.
    double demand = bg_base_ * rng_.uniform(0.5, 1.5);
    if (bursting) {
      const double offered = line_ * burst_intensity_;
      double throttled = offered * rate_factor_;
      // Incast floor: with C senders, one congestion window each per RTT
      // cannot be reduced further; many-connection bursts keep arriving
      // hot no matter what congestion control does (§8.2, Figure 19).
      const double floor = static_cast<double>(conns_current_) *
                           static_cast<double>(config_.mss) / config_.rtt_ms;
      throttled = std::max(throttled, std::min(floor, offered));
      demand += throttled;
    }

    StepDemand out;
    out.in_burst = bursting;
    out.smoothness = profile_.adaptivity;
    out.conns = conns_current_;
    out.sketch[0] = flow_sketch_.word(0);
    out.sketch[1] = flow_sketch_.word(1);

    // 4. Due retransmissions re-arrive on top of fresh demand, in the
    //    order they were scheduled: a due one waits behind an older one
    //    that is not (head-of-line blocking).
    std::int64_t retx = 0;
    while (retx_size_ > 0 && retx_ring_[retx_head_].due_step <= step_index_) {
      retx += retx_ring_[retx_head_].bytes;
      retx_head_ = (retx_head_ + 1) % kRetxCapacity;
      --retx_size_;
    }
    out.retx_bytes = retx;
    out.bytes = static_cast<std::int64_t>(demand) + retx;

    ++step_index_;
    return out;
  }

  /// Feedback from the fluid switch for the previous step: fraction of the
  /// server's delivered bytes that were CE-marked, and bytes dropped at
  /// the ToR queue.  Applied with one step of delay (~ several RTTs).
  void on_feedback(double marked_fraction, std::int64_t dropped_bytes) {
    pending_marked_ = marked_fraction;
    pending_dropped_ += dropped_bytes;
  }

  /// Current aggregate rate factor (tests / diagnostics).
  double rate_factor() const noexcept { return rate_factor_; }
  bool in_burst() const noexcept { return burst_remaining_ms_ > 0; }
  bool active_regime() const noexcept { return active_regime_; }

 private:
  /// Dropped bytes re-arrive kMinRetxLag to kMaxRetxLag steps later.
  static constexpr int kMinRetxLag = 2;
  static constexpr int kMaxRetxLag = 8;
  /// A step schedules at most one retransmission and the queue pops only
  /// from its front, so at most kMaxRetxLag + 1 are ever pending: an entry
  /// scheduled kMaxRetxLag steps ago is due, and so is every older entry
  /// it could wait behind.
  static constexpr std::size_t kRetxCapacity =
      std::bit_ceil(static_cast<std::size_t>(kMaxRetxLag) + 1);
  static_assert(kRetxCapacity >= kMaxRetxLag + 1,
                "the retransmission ring must hold its worst case");

  struct PendingRetx {
    int due_step = 0;
    std::int64_t bytes = 0;
  };

  void rebuild_flow_set(double mean_conns);
  void start_burst();
  void schedule_retransmission();

  TrafficProfile profile_;
  BurstProcessConfig config_;
  std::uint64_t flow_base_;
  util::Rng rng_;
  // Per-process constants of step(), computed once.
  double line_;     ///< line rate in whole bytes per ms
  double bg_base_;  ///< background demand before its per-step jitter

  bool active_regime_ = true;
  double run_rate_mult_ = 1.0;  ///< per-window burst-rate multiplier
  double start_p_ = 0.0;        ///< per-step burst-start probability
  int burst_remaining_ms_ = 0;
  double burst_intensity_ = 0.0;  ///< fraction of line rate this burst
  double rate_factor_ = 1.0;
  double pending_marked_ = 0.0;
  std::int64_t pending_dropped_ = 0;

  int conns_current_ = 0;
  core::FlowSketch flow_sketch_;
  std::uint64_t next_flow_salt_ = 0;

  int step_index_ = 0;
  /// Retransmissions awaiting re-arrival, oldest at retx_head_.
  std::array<PendingRetx, kRetxCapacity> retx_ring_{};
  std::size_t retx_head_ = 0;
  std::size_t retx_size_ = 0;
};

}  // namespace msamp::workload
