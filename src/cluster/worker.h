// The worker role: one process, one shard.  `run_worker` streams the
// shard's windows through a disk-backed fleet::SpillSink (peak RSS is a
// few spill chunks, never the shard) and emits heartbeat lines on the
// given stream — `msampctl worker` wires it to stdout, which the
// coordinator owns through a pipe.
//
// Fault injection (test-only, off by default): with `fault_rate > 0`,
// the worker draws a deterministic plan from util::Rng keyed on
// (seed, shard index, attempt) and may `std::_Exit` mid-shard — before
// the atomic rename, so a faulted attempt never leaves a partial shard
// file.  Because the plan is keyed on the attempt number, a killed
// attempt's retry draws a fresh plan, and because generation itself is
// deterministic, whichever attempt survives writes the identical bytes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "fleet/config.h"
#include "fleet/dataset.h"

namespace msamp::cluster {

/// Exit code of a fault-injected self-kill (distinct from 1, a real
/// error, and 127, an exec failure), so logs can tell them apart.
inline constexpr int kFaultExitCode = 75;

/// Exit code of a usage error: a flag the command rejects, or an unknown
/// command.  Rerunning the same command line fails the same way, so the
/// coordinator does not retry it.
inline constexpr int kUsageExitCode = 2;

struct WorkerConfig {
  fleet::FleetConfig fleet;
  fleet::ShardSpec shard;
  std::string out_path = "shard.bin";
  double fault_rate = 0.0;    ///< P(self-kill) per attempt; test-only
  std::uint32_t attempt = 0;  ///< launch number, keys the fault plan
};

/// The deterministic fault plan for this (seed, shard, attempt): the
/// number of windows after which the worker self-kills (possibly equal
/// to the shard's window count, i.e. after the last window but before
/// finalize), or nullopt for no fault.
std::optional<std::uint64_t> fault_plan(const WorkerConfig& config);

/// Generates the shard into `config.out_path`, emitting heartbeats on
/// `heartbeats` (progress lines throttled to ~1% steps, then `done` or
/// `error ...`).  Returns a process exit code: 0 on success, 1 on error;
/// a planned fault does not return, it `std::_Exit(kFaultExitCode)`s.
int run_worker(const WorkerConfig& config, std::ostream& heartbeats);

}  // namespace msamp::cluster
