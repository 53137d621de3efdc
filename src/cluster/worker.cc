#include "cluster/worker.h"

#include <cstdlib>
#include <exception>
#include <ostream>
#include <utility>

#include "cluster/protocol.h"
#include "fleet/fleet_runner.h"
#include "fleet/spill_sink.h"
#include "util/rng.h"

namespace msamp::cluster {
namespace {

/// Pass-through sink that executes the fault plan: after `kill_at`
/// windows have been delivered, the process dies without unwinding —
/// exactly like a machine loss — so no destructor, no finalize, and no
/// partial output file.
class FaultInjectingSink final : public fleet::WindowSink {
 public:
  FaultInjectingSink(fleet::WindowSink& inner,
                     std::optional<std::uint64_t> kill_at)
      : inner_(inner), kill_at_(kill_at) {}

  void on_window(std::size_t window, fleet::WindowRecords&& records) override {
    if (kill_at_.has_value() && seen_ == *kill_at_) {
      std::_Exit(kFaultExitCode);
    }
    inner_.on_window(window, std::move(records));
    ++seen_;
  }

  std::uint64_t seen() const { return seen_; }

 private:
  fleet::WindowSink& inner_;
  std::optional<std::uint64_t> kill_at_;
  std::uint64_t seen_ = 0;
};

}  // namespace

std::optional<std::uint64_t> fault_plan(const WorkerConfig& config) {
  if (config.fault_rate <= 0.0) return std::nullopt;
  // An independent stream per (seed, shard, attempt): each retry draws a
  // fresh plan, and two shards never share one.
  util::Rng rng = util::Rng(config.fleet.seed)
                      .fork(0x6661756c74ull)  // "fault"
                      .fork(config.shard.index)
                      .fork(config.attempt);
  if (!rng.bernoulli(config.fault_rate)) return std::nullopt;
  const std::size_t total =
      2ull * static_cast<std::size_t>(config.fleet.racks_per_region) *
      static_cast<std::size_t>(config.fleet.hours);
  const std::uint64_t windows =
      config.shard.end(total) - config.shard.begin(total);
  // kill_at == windows means "after the last window, before finalize" —
  // the spill files are complete but the shard file never appears.
  return rng.uniform_int(windows + 1);
}

int run_worker(const WorkerConfig& config, std::ostream& heartbeats) {
  const auto emit = [&heartbeats](const Heartbeat& hb) {
    heartbeats << encode(hb) << '\n' << std::flush;
  };
  const auto emit_error = [&](std::string message) {
    Heartbeat hb;
    hb.kind = Heartbeat::Kind::kError;
    hb.message = std::move(message);
    emit(hb);
    return 1;
  };
  try {
    fleet::SpillSink sink(config.fleet, config.shard, config.out_path);
    const auto plan = fault_plan(config);
    FaultInjectingSink faulty(sink, plan);
    double last = -1.0;
    fleet::run_fleet(config.fleet, config.shard, faulty, [&](double p) {
      // Throttle to ~1% steps so a large shard does not flood the pipe;
      // the final exact 1.0 always goes out.
      if (p >= 1.0 || last < 0.0 || p - last >= 0.01) {
        Heartbeat hb;
        hb.kind = Heartbeat::Kind::kProgress;
        hb.fraction = p;
        emit(hb);
        last = p;
      }
    });
    if (plan.has_value() && *plan >= faulty.seen()) {
      // Empty shards never reach the sink; the pre-finalize kill point.
      std::_Exit(kFaultExitCode);
    }
    if (auto st = sink.finalize(); !st) return emit_error(st.to_string());
    Heartbeat done;
    done.kind = Heartbeat::Kind::kDone;
    emit(done);
    return 0;
  } catch (const std::exception& e) {
    return emit_error(e.what());
  }
}

}  // namespace msamp::cluster
