#include "fleet/fluid_rack.h"

#include <algorithm>
#include <cstddef>

#include "net/shared_buffer.h"
#include "workload/diurnal.h"

namespace msamp::fleet {

FluidRack::FluidRack(const workload::RackMeta& rack, const FleetConfig& config,
                     int hour, util::Rng rng) {
  arm(rack, config, hour, rng);
}

void FluidRack::arm(const workload::RackMeta& rack, const FleetConfig& config,
                    int hour, util::Rng rng) {
  config_ = config;
  rng_ = rng;
  num_servers_ = static_cast<int>(rack.server_kind.size());
  grid_start_ = -1;
  num_samples_ = 0;
  const auto n = static_cast<std::size_t>(num_servers_);
  drain_per_ms_ =
      static_cast<std::int64_t>(config.line_rate_gbps * 1e9 / 8.0 / 1000.0);
  reserve_ = config.buffer.reserve_per_queue;
  alpha_ = config.buffer.alpha;
  ecn_threshold_ = config.buffer.ecn_threshold;

  const int quads = config.buffer.quadrants;
  const auto nq = static_cast<std::size_t>(quads);
  shared_capacity_per_quadrant_ =
      net::SharedBuffer::shared_capacity_per_quadrant(config.buffer,
                                                      num_servers_);
  shared_used_.assign(nq, 0);
  quad_transient_.assign(nq, 0);
  bursting_prev_.assign(n, 0);
  fabric_carry_.assign(n, 0);
  policy_ = net::make_policy(config.buffer, num_servers_);
  queues_per_quadrant_.assign(nq, 0);
  for (int s = 0; s < num_servers_; ++s) {
    ++queues_per_quadrant_[static_cast<std::size_t>(s % quads)];
  }
  queues_.assign(n, Queue{});
  shared_snapshot_.resize(nq);
  new_transient_.resize(nq);
  quad_bursting_.resize(nq);
  demands_.resize(n);

  const double diurnal = workload::diurnal_multiplier(rack.region, hour);
  core::ClockModelConfig clock_cfg = config.clocks;
  util::Rng clock_rng = rng_.fork(0x17);
  core::ClockModel clocks(clock_cfg, num_servers_, clock_rng);

  processes_.clear();
  processes_.reserve(n);
  clock_offsets_.clear();
  for (int s = 0; s < num_servers_; ++s) {
    workload::BurstProcessConfig bp;
    bp.line_rate_gbps = config.line_rate_gbps;
    bp.rtt_ms = config.rtt_ms;
    bp.mss = config.mss;
    bp.diurnal = diurnal;
    bp.intensity = rack.intensity;
    const std::uint64_t flow_base =
        (static_cast<std::uint64_t>(rack.rack_id) << 32) |
        (static_cast<std::uint64_t>(s) << 20) | 1u;
    processes_.emplace_back(
        workload::profile_for(rack.server_kind[static_cast<std::size_t>(s)]),
        bp, flow_base, rng_.fork(static_cast<std::uint64_t>(s) + 100));
    clock_offsets_.push_back(clocks.offset(s));
  }

  // The filters persist while the window shape does: run() re-enables
  // them, which clears every counter.
  core::TcFilterConfig fc;
  fc.num_cpus = config.filter_cpus;
  fc.num_buckets = config.samples_per_run;
  if (filters_.size() != n || (n > 0 && filters_.front().config() != fc)) {
    filters_.clear();
    for (std::size_t s = 0; s < n; ++s) filters_.emplace_back(fc);
  }
}

void FluidRack::step(sim::SimTime now, bool sampling, FluidRackTotals* result) {
  const int quads = static_cast<int>(shared_used_.size());
  // Snapshot shared occupancy (including last step's transient component)
  // so every queue sees the same DT limit this step — packets interleave
  // within the millisecond in reality.
  for (std::size_t q = 0; q < shared_used_.size(); ++q) {
    shared_snapshot_[q] = shared_used_[q] + quad_transient_[q];
  }
  std::fill(new_transient_.begin(), new_transient_.end(), 0);

  // Simultaneously bursting servers per quadrant (last step's view): the
  // collision count for the sub-ms micro-drop model below.
  std::fill(quad_bursting_.begin(), quad_bursting_.end(), 0);
  for (int s = 0; s < num_servers_; ++s) {
    if (bursting_prev_[static_cast<std::size_t>(s)] != 0) {
      ++quad_bursting_[static_cast<std::size_t>(s % quads)];
    }
  }

  // Workload demands for this step; optionally shaped by the fabric stage
  // before they reach the ToR downlinks (§8.1).
  for (int s = 0; s < num_servers_; ++s) {
    demands_[static_cast<std::size_t>(s)] =
        processes_[static_cast<std::size_t>(s)].step();
  }
  if (config_.fabric.enabled) {
    // 1. Smoothing: a slice of each server's arrivals sits in the fabric's
    //    deep buffers for one step (bytes conserved via the carry).
    std::int64_t aggregate = 0;
    for (int s = 0; s < num_servers_; ++s) {
      auto& d = demands_[static_cast<std::size_t>(s)];
      auto& carry = fabric_carry_[static_cast<std::size_t>(s)];
      const auto held = static_cast<std::int64_t>(
          config_.fabric.smoothing * static_cast<double>(d.bytes));
      const std::int64_t released = carry;
      carry = held;
      d.bytes = d.bytes - held + released;
      // Transit through the fabric's deep buffers also paces the packets:
      // the stream leaves clumpier senders smoother than it found them.
      d.smoothness =
          1.0 - (1.0 - d.smoothness) * (1.0 - config_.fabric.smoothing);
      // Holding back fresh bytes must not leave retx exceeding the total.
      d.retx_bytes = std::min(d.retx_bytes, d.bytes);
      aggregate += d.bytes;
    }
    // 2. Uplink cap: the rack's aggregate arrival cannot exceed the trunk;
    //    the excess is discarded upstream (fabric congestion discards) and
    //    retransmitted by the senders like any other loss.
    const auto uplink_per_ms = static_cast<std::int64_t>(
        config_.fabric.uplink_gbps * 1e9 / 8.0 / 1000.0);
    if (aggregate > uplink_per_ms) {
      const double keep = static_cast<double>(uplink_per_ms) /
                          static_cast<double>(aggregate);
      for (int s = 0; s < num_servers_; ++s) {
        auto& d = demands_[static_cast<std::size_t>(s)];
        const auto kept =
            static_cast<std::int64_t>(keep * static_cast<double>(d.bytes));
        const std::int64_t trimmed = d.bytes - kept;
        d.bytes = kept;
        d.retx_bytes = std::min(d.retx_bytes, kept);
        if (trimmed > 0) {
          processes_[static_cast<std::size_t>(s)].on_feedback(0.0, trimmed);
          if (result != nullptr) result->fabric_drop_bytes += trimmed;
        }
      }
    }
  }

  // One pass per server, in server order: each server's policy calls come
  // before its Rng draws, so the policy's state and the Rng stream see the
  // same call sequence on every run.
  for (int s = 0; s < num_servers_; ++s) {
    auto& proc = processes_[static_cast<std::size_t>(s)];
    Queue& q = queues_[static_cast<std::size_t>(s)];
    const int quad = s % quads;
    const workload::StepDemand& d = demands_[static_cast<std::size_t>(s)];

    // --- admission limit under the configured sharing policy ---
    const std::int64_t free_shared = std::max<std::int64_t>(
        shared_capacity_per_quadrant_ -
            shared_snapshot_[static_cast<std::size_t>(quad)],
        0);
    net::PolicyQueueState ps;
    ps.queue_len = q.len;
    ps.shared_len = std::max<std::int64_t>(q.len - reserve_, 0);
    ps.free_shared = free_shared;
    ps.shared_capacity = shared_capacity_per_quadrant_;
    ps.queues_in_quadrant = queues_per_quadrant_[static_cast<std::size_t>(quad)];
    ps.arriving_bytes = d.bytes;
    ps.drain_bytes_per_ms = drain_per_ms_;
    const std::int64_t limit = reserve_ + policy_->policy_limit(s, ps);
    // The whole step's demand is one arrival observation, accepted or not
    // (kBurstAbsorbDt keys burst freshness off offered demand).
    policy_->on_enqueue(s, d.bytes);

    // The queue drains while it fills, so up to (limit - len) + drain bytes
    // fit within the step.
    std::int64_t accepted = std::min(
        d.bytes, std::max<std::int64_t>(limit - q.len, 0) + drain_per_ms_);
    std::int64_t dropped = d.bytes - accepted;

    // Sub-millisecond collision drops: when several bursts share a
    // quadrant, their packet clumps interleave and momentarily poke above
    // the DT limit even though each queue's millisecond average fits.
    // The collision probability grows with the number of co-bursting
    // queues and with the burst's incast degree (many senders arrive in
    // tighter clumps); one collision costs about a clump of packets.
    // This is the mechanism behind Figures 16 and 19.
    const bool hot = accepted > drain_per_ms_ / 2;
    if (hot && quad_bursting_[static_cast<std::size_t>(quad)] >
                   (bursting_prev_[static_cast<std::size_t>(s)] ? 1 : 0)) {
      const int others = quad_bursting_[static_cast<std::size_t>(quad)] -
                         (bursting_prev_[static_cast<std::size_t>(s)] ? 1 : 0);
      const double incast = std::clamp(d.conns / 40.0, 0.15, 2.0);
      const double load = static_cast<double>(accepted) /
                          static_cast<double>(drain_per_ms_);
      // Paced (adapted) senders spread their packets over the RTT and
      // rarely collide; oblivious incast clumps collide often.  A policy
      // that grants this queue more headroom than deployed DT absorbs
      // clumps that would otherwise poke above the limit (and vice versa
      // for tighter policies like static partitioning).
      const double clumpiness = (1.0 - d.smoothness) * (1.0 - d.smoothness);
      const std::int64_t dt_limit =
          reserve_ + static_cast<std::int64_t>(
                         alpha_ * static_cast<double>(free_shared));
      const double headroom = std::clamp(
          static_cast<double>(dt_limit) /
              static_cast<double>(std::max<std::int64_t>(limit, 1)),
          0.25, 4.0);
      const double p_collision =
          std::min(0.30, 0.08 * others * incast * clumpiness *
                             std::min(load, 1.5) * headroom);
      if (rng_.bernoulli(p_collision)) {
        const auto clump = static_cast<std::int64_t>(
            std::min(static_cast<double>(accepted) * 0.5,
                     d.conns * static_cast<double>(config_.mss) *
                         rng_.uniform(0.5, 2.0)));
        accepted -= clump;
        dropped += clump;
      }
    }
    bursting_prev_[static_cast<std::size_t>(s)] = hot ? 1 : 0;

    // Retransmission content of the accepted bytes (proportional share;
    // a zero share needs no division).
    const std::int64_t accepted_retx =
        d.bytes > 0 && d.retx_bytes != 0
            ? static_cast<std::int64_t>(
                  static_cast<double>(d.retx_bytes) *
                  static_cast<double>(accepted) /
                  static_cast<double>(d.bytes))
            : 0;

    // --- ECN marking: fraction of the step the queue spent above K ---
    const std::int64_t q0 = q.len;
    const std::int64_t q1 =
        std::max<std::int64_t>(0, q.len + accepted - drain_per_ms_);
    double mark_frac = 0.0;
    const std::int64_t hi = std::max(q0, q1);
    const std::int64_t lo = std::min(q0, q1);
    if (lo >= ecn_threshold_) {
      mark_frac = 1.0;
    } else if (hi > ecn_threshold_) {
      mark_frac = static_cast<double>(hi - ecn_threshold_) /
                  static_cast<double>(std::max<std::int64_t>(hi - lo, 1));
    }
    const auto marked =
        static_cast<std::int64_t>(mark_frac * static_cast<double>(accepted));

    // --- queue update with composition tracking ---
    const std::int64_t before_total = q.len + accepted;
    q.retx_part += accepted_retx;
    q.ecn_part += marked;
    const std::int64_t delivered = std::min(before_total, drain_per_ms_);
    std::int64_t delivered_retx = 0, delivered_ecn = 0;
    // Any finite share of zero bytes truncates to zero: skip the division.
    if (before_total > 0 && (q.retx_part != 0 || q.ecn_part != 0)) {
      const double frac = static_cast<double>(delivered) /
                          static_cast<double>(before_total);
      delivered_retx = static_cast<std::int64_t>(
          frac * static_cast<double>(q.retx_part));
      delivered_ecn = static_cast<std::int64_t>(
          frac * static_cast<double>(q.ecn_part));
    }
    q.len = before_total - delivered;
    q.retx_part -= delivered_retx;
    q.ecn_part -= delivered_ecn;
    shared_used_[static_cast<std::size_t>(quad)] +=
        std::max<std::int64_t>(q.len - reserve_, 0) -
        std::max<std::int64_t>(q0 - reserve_, 0);
    // ~30% of a step's arrivals sit in the buffer at any instant within
    // the millisecond (sub-ms interleaving), visible to next step's limit.
    new_transient_[static_cast<std::size_t>(quad)] += (accepted * 3) / 10;

    // --- congestion feedback to the senders (applied next step) ---
    proc.on_feedback(
        accepted > 0 ? static_cast<double>(marked) / static_cast<double>(accepted)
                     : 0.0,
        dropped);

    // --- measurement: delivered traffic through the real tc filter ---
    if (sampling) {
      core::SegmentBatch batch;
      batch.in_bytes = delivered;
      batch.in_retx_bytes = delivered_retx;
      batch.in_ecn_bytes = delivered_ecn;
      // Server egress is ACK-dominated for this ingress-heavy fleet slice.
      batch.out_bytes = delivered / 32 + 1500;
      batch.sketch[0] = d.sketch[0];
      batch.sketch[1] = d.sketch[1];
      filters_[static_cast<std::size_t>(s)].process_batch(
          0, batch, now + clock_offsets_[static_cast<std::size_t>(s)]);
    }

    if (result != nullptr) {
      result->offered_bytes += d.bytes;
      result->delivered_bytes += delivered;
      result->drop_bytes += dropped;
      result->ecn_bytes += delivered_ecn;
    }
  }
  quad_transient_.swap(new_transient_);
}

const FluidRackTotals& FluidRack::simulate() {
  FluidRackTotals& totals = result_;
  totals = FluidRackTotals{};
  sim::SimTime now = 0;
  for (int t = 0; t < config_.warmup_ms; ++t) {
    step(now, /*sampling=*/false, nullptr);
    now += sim::kMillisecond;
  }
  for (auto& f : filters_) f.enable(sim::kMillisecond);
  // One step beyond the bucket count.  Every filter latches its start on
  // the first sampled step, so this step's batch lands past the last
  // bucket and only ends the run; the step stays because its bytes count
  // toward the window's totals (the rack-run record).  (With no warm-up,
  // a negative clock offset re-latches the start on the second step, and
  // this step fills that filter's last bucket.)
  for (int t = 0; t <= config_.samples_per_run; ++t) {
    step(now, /*sampling=*/true, &totals);
    now += sim::kMillisecond;
  }
  core::GridTrim trim(sim::kMillisecond);
  for (const auto& f : filters_) {
    trim.add(f.start_time(), sim::kMillisecond * f.config().num_buckets);
  }
  grid_start_ = trim.start();
  num_samples_ = trim.samples();
  return totals;
}

void FluidRack::align(int s, std::vector<core::BucketSample>& out) {
  const core::TcFilter& f = filters_[static_cast<std::size_t>(s)];
  read_.start = f.start_time();
  f.read_aggregated(read_.buckets);
  core::align_series(read_, grid_start_, num_samples_, out);
}

const FluidRackResult& FluidRack::run() {
  simulate();
  core::SyncRun& sync = result_.sync;
  sync.grid_start = grid_start_;
  sync.interval = sim::kMillisecond;
  sync.hosts.clear();
  if (num_samples_ == 0) {
    sync.series.clear();
    return result_;
  }
  sync.series.resize(filters_.size());
  for (int s = 0; s < num_servers_; ++s) {
    sync.hosts.push_back(static_cast<net::HostId>(s));
    align(s, sync.series[static_cast<std::size_t>(s)]);
  }
  return result_;
}

}  // namespace msamp::fleet
