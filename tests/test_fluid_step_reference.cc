// Reference test for the fluid step's per-server hot path: the burst
// process that stands in for one server's senders under DCTCP-like
// feedback (§7-8), and the Rng draws it makes every millisecond.
// RefBurstProcess below restates the generator in its plainest form: a
// std::deque retransmission pipeline, the burst-start probability
// recomputed on every quiet step, and the line rate recomputed on every
// step.  The tests drive it side by side with workload::BurstProcess from
// equal seeds and compare every StepDemand field bit for bit, so any
// change to the arithmetic, its operand order or the order of the draws
// fails here before it moves a generated day's bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <utility>

#include "core/flow_sketch.h"
#include "util/rng.h"
#include "workload/burst_process.h"
#include "workload/task.h"

namespace msamp::workload {
namespace {

// ---- The reference generator ----

class RefBurstProcess {
 public:
  RefBurstProcess(const TrafficProfile& profile,
                  const BurstProcessConfig& config, std::uint64_t flow_base,
                  util::Rng rng)
      : profile_(profile), config_(config), flow_base_(flow_base), rng_(rng) {
    begin_run();
  }

  void begin_run() {
    active_regime_ = rng_.bernoulli(profile_.active_run_prob);
    run_rate_mult_ = rng_.lognormal(-0.55, 0.95);
    burst_remaining_ms_ = 0;
    pending_marked_ = 0.0;
    pending_dropped_ = 0;
    retx_pipeline_.clear();
    step_index_ = 0;
    if (profile_.adaptivity < 0.7) rate_factor_ = 1.0;
    rebuild_flow_set(profile_.conns_outside);
  }

  void on_feedback(double marked_fraction, std::int64_t dropped_bytes) {
    pending_marked_ = marked_fraction;
    pending_dropped_ += dropped_bytes;
  }

  StepDemand step() {
    if (pending_marked_ > 0.0) {
      rate_factor_ *=
          1.0 - profile_.adaptivity * std::min(pending_marked_, 1.0) / 2.0;
    }
    if (pending_dropped_ > 0) {
      rate_factor_ *= 0.5;
      const int lag =
          2 + static_cast<int>(std::min(rng_.exponential(0.8), 6.0));
      retx_pipeline_.emplace_back(step_index_ + lag, pending_dropped_);
      max_pending_ = std::max(max_pending_, retx_pipeline_.size());
      pending_dropped_ = 0;
    }
    if (pending_marked_ <= 0.0) {
      rate_factor_ += 0.02 + 0.10 * profile_.adaptivity;
    }
    pending_marked_ = 0.0;
    rate_factor_ = std::clamp(rate_factor_, 0.02, 1.0);

    if (burst_remaining_ms_ > 0) {
      --burst_remaining_ms_;
      if (burst_remaining_ms_ == 0) rebuild_flow_set(profile_.conns_outside);
    } else {
      maybe_start_burst();
    }
    const bool bursting = burst_remaining_ms_ > 0;

    const auto line = static_cast<double>(line_bytes_per_ms());
    double demand = line * profile_.background_util * config_.diurnal *
                    std::min(config_.intensity, 2.0) * rng_.uniform(0.5, 1.5);
    if (bursting) {
      const double offered = line * burst_intensity_;
      double throttled = offered * rate_factor_;
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

    std::int64_t retx = 0;
    while (!retx_pipeline_.empty() &&
           retx_pipeline_.front().first <= step_index_) {
      retx += retx_pipeline_.front().second;
      retx_pipeline_.pop_front();
    }
    // Head-of-line blocking: a later entry already due waits behind a
    // front entry that is not.
    for (const auto& [due, bytes] : retx_pipeline_) {
      if (due <= step_index_) {
        ++blocked_steps_;
        break;
      }
    }
    out.retx_bytes = retx;
    out.bytes = static_cast<std::int64_t>(demand) + retx;

    ++step_index_;
    return out;
  }

  double rate_factor() const { return rate_factor_; }
  bool in_burst() const { return burst_remaining_ms_ > 0; }
  bool active_regime() const { return active_regime_; }
  /// Most retransmissions ever pending at once.
  std::size_t max_pending() const { return max_pending_; }
  /// Steps that ended with a due retransmission held behind the front.
  int blocked_steps() const { return blocked_steps_; }

 private:
  void rebuild_flow_set(double mean_conns) {
    conns_current_ = static_cast<int>(
        std::max<std::uint64_t>(1, rng_.poisson(std::max(mean_conns, 0.5))));
    flow_sketch_.clear();
    for (int i = 0; i < conns_current_; ++i) {
      flow_sketch_.add(flow_base_ + next_flow_salt_++);
    }
  }

  void maybe_start_burst() {
    double rate_hz = profile_.burst_rate_hz * config_.diurnal *
                     config_.intensity * run_rate_mult_;
    if (!active_regime_) rate_hz *= 0.02;
    const double p = std::min(rate_hz / 1000.0, 0.95);
    if (!rng_.bernoulli(p)) return;

    const double len_ms =
        rng_.lognormal(profile_.burst_len_mu, profile_.burst_len_sigma);
    burst_remaining_ms_ = std::max(1, static_cast<int>(std::lround(len_ms)));
    const double u = rng_.uniform();
    burst_intensity_ = profile_.intensity_lo +
                       (profile_.intensity_hi - profile_.intensity_lo) *
                           u * u * u * u;
    if (profile_.adaptivity < 0.7) rate_factor_ = 1.0;
    rebuild_flow_set(profile_.conns_inside);
  }

  std::int64_t line_bytes_per_ms() const {
    return static_cast<std::int64_t>(config_.line_rate_gbps * 1e9 / 8.0 /
                                     1000.0);
  }

  TrafficProfile profile_;
  BurstProcessConfig config_;
  std::uint64_t flow_base_;
  util::Rng rng_;

  bool active_regime_ = true;
  double run_rate_mult_ = 1.0;
  int burst_remaining_ms_ = 0;
  double burst_intensity_ = 0.0;
  double rate_factor_ = 1.0;
  double pending_marked_ = 0.0;
  std::int64_t pending_dropped_ = 0;

  int conns_current_ = 0;
  core::FlowSketch flow_sketch_;
  std::uint64_t next_flow_salt_ = 0;

  int step_index_ = 0;
  std::deque<std::pair<int, std::int64_t>> retx_pipeline_;
  std::size_t max_pending_ = 0;
  int blocked_steps_ = 0;
};

// ---- Driving both side by side ----

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

::testing::AssertionResult same_step(const StepDemand& ref,
                                     const StepDemand& got,
                                     const RefBurstProcess& rp,
                                     const BurstProcess& bp) {
  if (ref.bytes != got.bytes || ref.retx_bytes != got.retx_bytes ||
      bits(ref.conns) != bits(got.conns) || ref.sketch[0] != got.sketch[0] ||
      ref.sketch[1] != got.sketch[1] || ref.in_burst != got.in_burst ||
      bits(ref.smoothness) != bits(got.smoothness)) {
    return ::testing::AssertionFailure()
           << "StepDemand differs: bytes " << ref.bytes << " vs " << got.bytes
           << ", retx " << ref.retx_bytes << " vs " << got.retx_bytes
           << ", conns " << ref.conns << " vs " << got.conns << ", in_burst "
           << ref.in_burst << " vs " << got.in_burst;
  }
  if (bits(rp.rate_factor()) != bits(bp.rate_factor()) ||
      rp.in_burst() != bp.in_burst() ||
      rp.active_regime() != bp.active_regime()) {
    return ::testing::AssertionFailure()
           << "state differs: rate_factor " << rp.rate_factor() << " vs "
           << bp.rate_factor() << ", in_burst " << rp.in_burst() << " vs "
           << bp.in_burst();
  }
  return ::testing::AssertionSuccess();
}

/// The congestion feedback fed after each step.
enum class Feedback {
  kMixed,          ///< random marks and drops, sometimes two calls a step
  kMarksOnly,      ///< a mark in (0, 1] every step
  kDropEveryStep,  ///< a drop after every step
  kDropAlternate,  ///< a drop after every other step
  kQuiet,          ///< no marks and no drops
};

/// A mark fraction in (0, 1].
double mark(util::Rng& fb_rng) { return 1.0 - fb_rng.uniform(); }

std::int64_t drop(util::Rng& fb_rng) {
  return 1 + static_cast<std::int64_t>(fb_rng.uniform_int(200000));
}

/// Runs `steps` steps of both generators under `feedback`, comparing
/// after every step.  `fb_rng` draws the feedback, so neither generator's
/// stream sees it.
::testing::AssertionResult drive(RefBurstProcess& rp, BurstProcess& bp,
                                 util::Rng& fb_rng, Feedback feedback,
                                 int steps, std::int64_t* max_bytes = nullptr) {
  for (int t = 0; t < steps; ++t) {
    const StepDemand ref = rp.step();
    const StepDemand got = bp.step();
    if (auto ok = same_step(ref, got, rp, bp); !ok) {
      return ok << " (step " << t << ")";
    }
    if (max_bytes != nullptr) *max_bytes = std::max(*max_bytes, got.bytes);
    double marked = 0.0;
    std::int64_t dropped = 0;
    switch (feedback) {
      case Feedback::kMixed:
        if (fb_rng.bernoulli(0.3)) marked = mark(fb_rng);
        if (fb_rng.bernoulli(0.08)) dropped = drop(fb_rng);
        if (fb_rng.bernoulli(0.05)) {
          // The fabric's uplink trim reports a loss before the queue does.
          const std::int64_t trimmed = drop(fb_rng);
          rp.on_feedback(0.0, trimmed);
          bp.on_feedback(0.0, trimmed);
        }
        break;
      case Feedback::kMarksOnly:
        marked = mark(fb_rng);
        break;
      case Feedback::kDropEveryStep:
        dropped = drop(fb_rng);
        break;
      case Feedback::kDropAlternate:
        if (t % 2 == 0) dropped = drop(fb_rng);
        break;
      case Feedback::kQuiet:
        break;
    }
    rp.on_feedback(marked, dropped);
    bp.on_feedback(marked, dropped);
  }
  return ::testing::AssertionSuccess();
}

struct Phase {
  Feedback feedback;
  int steps;
};

/// One window's feedback: every pattern, including a long quiet stretch.
constexpr std::array<Phase, 6> kWindowPhases = {{{Feedback::kMixed, 900},
                                                 {Feedback::kQuiet, 1200},
                                                 {Feedback::kDropEveryStep, 300},
                                                 {Feedback::kMarksOnly, 300},
                                                 {Feedback::kDropAlternate, 400},
                                                 {Feedback::kMixed, 400}}};

/// Two windows, re-armed in between as the fluid rack re-arms its
/// processes.
::testing::AssertionResult drive_windows(RefBurstProcess& rp,
                                         BurstProcess& bp, util::Rng& fb_rng,
                                         std::int64_t* max_bytes = nullptr) {
  for (int window = 0; window < 2; ++window) {
    if (window > 0) {
      rp.begin_run();
      bp.begin_run();
    }
    for (const Phase& phase : kWindowPhases) {
      if (auto ok = drive(rp, bp, fb_rng, phase.feedback, phase.steps,
                          max_bytes);
          !ok) {
        return ok << " in window " << window;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

BurstProcessConfig env(double diurnal, double intensity) {
  BurstProcessConfig c;
  c.line_rate_gbps = 12.5;
  c.rtt_ms = 0.1;
  c.mss = 1460;
  c.diurnal = diurnal;
  c.intensity = intensity;
  return c;
}

/// Diurnal and rack-intensity pairs: the neutral point, a quiet and a
/// busy hour, and an intensity above the background's cap of 2.
constexpr std::array<std::pair<double, double>, 4> kEnvs = {
    {{1.0, 1.0}, {0.37, 0.8}, {1.63, 1.45}, {2.2, 2.6}}};

// ---- Tests ----

TEST(FluidStepReference, RngKnownAnswers) {
  // The first draws of two streams, pinned: SameSeedSameStream compares a
  // generator with itself and would not see an edited one.
  constexpr std::array<std::uint64_t, 8> kSeed42 = {
      0xd0764d4f4476689fULL, 0x519e4174576f3791ULL, 0xfbe07cfb0c24ed8cULL,
      0xb37d9f600cd835b8ULL, 0xcb231c3874846a73ULL, 0x968d9f004e50de7dULL,
      0x201718ff221a3556ULL, 0x9ae94e070ed8cb46ULL};
  constexpr std::array<std::uint64_t, 8> kSeed42Fork7 = {
      0x66db50329fbfba40ULL, 0x75e371eb9f301493ULL, 0x96f9f1c31d1479e8ULL,
      0x49123fa72a87f4f5ULL, 0xeeb4a6b1ac04bbcfULL, 0xb0b0cc4694aa9cabULL,
      0xdbced8afde4351daULL, 0x38e316d0c89170adULL};

  const auto check = [](util::Rng stream,
                        const std::array<std::uint64_t, 8>& expected) {
    util::Rng raw = stream, unit = stream, ranged = stream, coin = stream;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const std::uint64_t x = expected[i];
      EXPECT_EQ(raw.next(), x) << "draw " << i;
      // 53 high bits scaled to [0, 1).
      const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
      EXPECT_EQ(bits(unit.uniform()), bits(u)) << "draw " << i;
      EXPECT_EQ(bits(ranged.uniform(0.5, 1.5)), bits(0.5 + 1.0 * u))
          << "draw " << i;
      const double p = 0.125 * static_cast<double>(i + 1);
      EXPECT_EQ(coin.bernoulli(p), u < p) << "draw " << i;
    }
  };
  check(util::Rng(42), kSeed42);
  check(util::Rng(42).fork(7), kSeed42Fork7);

  // Certain outcomes draw nothing.
  util::Rng a(42), b(42);
  EXPECT_FALSE(a.bernoulli(0.0));
  EXPECT_TRUE(a.bernoulli(1.0));
  EXPECT_EQ(a.next(), b.next());
}

TEST(FluidStepReference, EveryTaskProfileMatchesTheReference) {
  std::uint64_t seed = 1;
  for (int k = 0; k < kNumTaskKinds; ++k) {
    const auto kind = static_cast<TaskKind>(k);
    for (const double forced : {-1.0, 0.0, 1.0}) {
      TrafficProfile profile = profile_for(kind);
      if (forced >= 0.0) profile.active_run_prob = forced;
      for (const auto& [diurnal, intensity] : kEnvs) {
        const BurstProcessConfig c = env(diurnal, intensity);
        const std::uint64_t flow_base = (seed << 20) | 1u;
        RefBurstProcess rp(profile, c, flow_base, util::Rng(seed));
        BurstProcess bp(profile, c, flow_base, util::Rng(seed));
        util::Rng fb_rng(seed + 1000);
        ASSERT_TRUE(drive_windows(rp, bp, fb_rng))
            << task_name(kind) << ", active_run_prob "
            << profile.active_run_prob << ", diurnal " << diurnal
            << ", intensity " << intensity;
        ++seed;
      }
    }
  }
}

TEST(FluidStepReference, WideLineShowsEveryRoundingOfTheDemand) {
  // At 12.5 Gb/s one ulp of a step's demand is far below a byte, so a
  // reassociated product would almost never change StepDemand::bytes.  At
  // 10^13 Gb/s a step's background alone passes 2^53 bytes, where every
  // ulp is a whole byte or more, and the comparison sees each rounding.
  std::uint64_t seed = 500;
  std::int64_t max_bytes = 0;
  for (int k = 0; k < kNumTaskKinds; ++k) {
    const auto kind = static_cast<TaskKind>(k);
    for (const auto& [diurnal, intensity] : kEnvs) {
      BurstProcessConfig c = env(diurnal, intensity);
      c.line_rate_gbps = 1e13;
      const std::uint64_t flow_base = (seed << 20) | 1u;
      RefBurstProcess rp(profile_for(kind), c, flow_base, util::Rng(seed));
      BurstProcess bp(profile_for(kind), c, flow_base, util::Rng(seed));
      util::Rng fb_rng(seed + 1000);
      ASSERT_TRUE(drive_windows(rp, bp, fb_rng, &max_bytes))
          << task_name(kind) << ", diurnal " << diurnal << ", intensity "
          << intensity;
      ++seed;
    }
  }
  EXPECT_GT(max_bytes, std::int64_t{1} << 53);
}

TEST(FluidStepReference, DropEveryStepDrivesTheRetransmissionQueueToItsBound) {
  // One push a step with a lag of 2 to 8 steps leaves at most 9 entries
  // pending; 2,500 steps of drops reach that bound, and the due entries
  // held behind a later-due front show head-of-line blocking is kept.
  TrafficProfile profile = profile_for(TaskKind::kWeb);
  profile.active_run_prob = 1.0;
  RefBurstProcess rp(profile, env(1.0, 1.0), 1, util::Rng(77));
  BurstProcess bp(profile, env(1.0, 1.0), 1, util::Rng(77));
  util::Rng fb_rng(78);
  ASSERT_TRUE(drive(rp, bp, fb_rng, Feedback::kDropEveryStep, 2500));
  EXPECT_EQ(rp.max_pending(), 9u);
  EXPECT_GT(rp.blocked_steps(), 0);
  ASSERT_TRUE(drive(rp, bp, fb_rng, Feedback::kDropAlternate, 2000));
  ASSERT_TRUE(drive(rp, bp, fb_rng, Feedback::kQuiet, 3000));
  ASSERT_TRUE(drive(rp, bp, fb_rng, Feedback::kDropEveryStep, 2500));
  EXPECT_EQ(rp.max_pending(), 9u);
}

}  // namespace
}  // namespace msamp::workload
