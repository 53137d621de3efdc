#include "workload/burst_process.h"

#include <algorithm>
#include <cmath>

namespace msamp::workload {

namespace {

/// The line rate in whole bytes per ms.
double line_bytes_per_ms(const BurstProcessConfig& config) {
  return static_cast<double>(static_cast<std::int64_t>(
      config.line_rate_gbps * 1e9 / 8.0 / 1000.0));
}

}  // namespace

BurstProcess::BurstProcess(const TrafficProfile& profile,
                           const BurstProcessConfig& config,
                           std::uint64_t flow_base, util::Rng rng)
    : profile_(profile),
      config_(config),
      flow_base_(flow_base),
      rng_(rng),
      line_(line_bytes_per_ms(config)),
      // Associated left to right, so step()'s bg_base_ * jitter rounds
      // exactly as the whole five-factor product does.
      bg_base_(line_ * profile.background_util * config.diurnal *
               std::min(config.intensity, 2.0)) {
  begin_run();
}

void BurstProcess::begin_run() {
  active_regime_ = rng_.bernoulli(profile_.active_run_prob);
  // Heavy-tailed per-window burst rate: the p90 server run sees ~5x the
  // median's bursts per second (Figure 6).
  run_rate_mult_ = rng_.lognormal(-0.55, 0.95);
  // Poisson burst arrivals; the active-regime gate reproduces the paper's
  // "34% of server runs are bursty" statistic, and the rack intensity
  // scalar + diurnal multiplier scale load (§7.2's volume correlation).
  double rate_hz = profile_.burst_rate_hz * config_.diurnal *
                   config_.intensity * run_rate_mult_;
  if (!active_regime_) rate_hz *= 0.02;
  start_p_ = std::min(rate_hz / 1000.0, 0.95);
  burst_remaining_ms_ = 0;
  pending_marked_ = 0.0;
  pending_dropped_ = 0;
  retx_head_ = 0;
  retx_size_ = 0;
  step_index_ = 0;
  // Non-persistent (poorly adapting, short-lived) senders start each window
  // at full rate; adapted long-running senders keep their operating point.
  if (profile_.adaptivity < 0.7) rate_factor_ = 1.0;
  rebuild_flow_set(profile_.conns_outside);
}

void BurstProcess::rebuild_flow_set(double mean_conns) {
  conns_current_ = static_cast<int>(
      std::max<std::uint64_t>(1, rng_.poisson(std::max(mean_conns, 0.5))));
  flow_sketch_.clear();
  for (int i = 0; i < conns_current_; ++i) {
    // Fresh salts per rebuild: connection churn between phases.
    flow_sketch_.add(flow_base_ + next_flow_salt_++);
  }
}

void BurstProcess::start_burst() {
  const double len_ms =
      rng_.lognormal(profile_.burst_len_mu, profile_.burst_len_sigma);
  burst_remaining_ms_ = std::max(1, static_cast<int>(std::lround(len_ms)));
  // Skewed intensity draw: most bursts run at 55-90% of the drain rate
  // (the paper's in-burst median utilization is 65.5%); only the tail
  // arrives faster than the downlink drains and builds real queues.
  const double u = rng_.uniform();
  burst_intensity_ = profile_.intensity_lo +
                     (profile_.intensity_hi - profile_.intensity_lo) *
                         u * u * u * u;
  if (profile_.adaptivity < 0.7) rate_factor_ = 1.0;  // fresh senders
  rebuild_flow_set(profile_.conns_inside);
}

void BurstProcess::schedule_retransmission() {
  // Loss halves every sender (DCTCP falls back to loss recovery too),
  // and the dropped bytes come back as retransmissions a few ms later
  // (fast-retransmit + requeue latency).
  rate_factor_ *= 0.5;
  const int lag =
      kMinRetxLag +
      static_cast<int>(std::min(rng_.exponential(0.8),
                                static_cast<double>(kMaxRetxLag - kMinRetxLag)));
  retx_ring_[(retx_head_ + retx_size_) % kRetxCapacity] = {
      step_index_ + lag, pending_dropped_};
  ++retx_size_;
  pending_dropped_ = 0;
}

}  // namespace msamp::workload
