// One packet-level rack window: real TCP connections over the packet
// simulator (PacketRackDriver), a Millisampler on every server, and the
// SyncMillisampler combine step, reduced to a one-line summary.  The
// `packet-rack` workload runs these in a child process; the traced
// profile runs one in process with spans around each layer.
#pragma once

#include <cstdint>
#include <string>

#include "trace.h"

namespace msamp::perfbench {

struct PacketWindowConfig {
  int servers = 16;
  int samples = 100;  ///< 1 ms buckets per server
  std::uint64_t seed = 42;
};

struct PacketWindowResult {
  std::uint64_t events = 0;  ///< simulator events dispatched
  std::int64_t grid_start = -1;
  std::size_t num_samples = 0;
  long bursty_servers = 0;
  long bursts = 0;
  double avg_contention = 0.0;
  int p90_contention = 0;
  std::int64_t delivered_bytes = 0;
  std::int64_t retx_bytes = 0;

  /// Deterministic one-line summary (the workload's checked output).
  std::string line() const;
};

/// Simulates one window.  With a tracer, records the spans
/// workload.packet_setup, sim.run (counter `events`), core.combine_runs
/// and analysis.window.
PacketWindowResult run_packet_window(const PacketWindowConfig& config,
                                     Tracer* tracer = nullptr);

}  // namespace msamp::perfbench
