// The cluster coordinator: partitions the canonical window sequence into
// `workers` ShardSpecs, runs one worker *process* per shard (fork/exec of
// this binary in the worker role, heartbeats over a stdout pipe), detects
// crashes and stalls, retries failed shards with capped exponential
// backoff, and streams the finished shard files into the final dataset
// with fleet::merge_shards.
//
// Retries are safe because workers are deterministic and finalize via
// atomic rename: an attempt either produces the exact canonical bytes
// for its shard or leaves nothing, so the merged output is byte-identical
// to a single-process run no matter how many attempts each shard took —
// `scripts/check_dataset_determinism.sh` proves it with `cmp` under
// injected faults.  Architecture notes live in docs/CLUSTER.md.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "cluster/process.h"
#include "cluster/retry.h"
#include "fleet/config.h"
#include "fleet/dataset.h"
#include "fleet/merge.h"
#include "fleet/spill_sink.h"

namespace msamp::cluster {

struct ClusterConfig {
  fleet::FleetConfig fleet;
  int workers = 2;  ///< shard count == worker process count

  std::string out_path = "dataset.bin";
  /// Where shard files (and their spill temps) live while the run is in
  /// flight.  Empty = `<out_path>.shards`.  Removed after a successful
  /// merge unless `keep_shards`.
  std::string shard_dir;
  bool keep_shards = false;

  /// Forwarded to every worker (see WorkerConfig).  Nonzero values are
  /// for the fault-injection tests and check scripts only.
  double fault_rate = 0.0;
  std::size_t chunk_bytes = fleet::SpillSink::kDefaultChunkBytes;

  RetryPolicy retry{};
  /// A running worker that emits no heartbeat for this long is presumed
  /// wedged: killed and retried like a crash.
  int stall_timeout_ms = 30000;
  /// Concurrent worker processes; 0 = all shards at once.
  int max_parallel = 0;

  /// Test hook: builds the argv for one shard attempt.  Default =
  /// `self_exe_path()` re-exec'd in the `msampctl worker` role with the
  /// CLI-expressible FleetConfig fields forwarded as flags.  Library
  /// callers with configs the CLI cannot express must supply their own
  /// command; the post-merge fingerprint check below catches the mismatch
  /// if they forget.
  std::function<std::vector<std::string>(
      const fleet::ShardSpec& shard, std::uint32_t attempt,
      const std::string& shard_out_path)>
      spawn_command;
};

class Coordinator {
 public:
  explicit Coordinator(ClusterConfig config);

  /// Runs the cluster to completion.  `progress` (optional) receives one
  /// serialized, strictly increasing 0→1 stream for the whole day —
  /// run_fleet's contract — aggregated from the workers' heartbeats and
  /// ending at exactly 1.0 after the merge (a shard retry resets that
  /// shard's fraction, but the aggregate stream never goes backwards).
  /// `log` (optional) receives one line per scheduling event.  Returns
  /// false with a reason in `*error` when a shard exhausts its retry
  /// budget, the merge fails, or the merged fingerprint disagrees with
  /// `fleet.fingerprint()` (a worker generated from a different config).
  bool run(std::function<void(double)> progress = nullptr,
           std::ostream* log = nullptr, std::string* error = nullptr);

  /// What the final merge folded; valid after a successful run().
  const fleet::MergeStats& stats() const { return stats_; }

 private:
  struct Slot {
    fleet::ShardSpec shard;
    std::string out;
    ChildProcess child;
    std::string pipe_buf;
    std::uint32_t attempts = 0;  ///< launches so far
    double fraction = 0.0;       ///< this attempt's last reported progress
    std::int64_t last_heartbeat_ms = 0;
    std::int64_t next_start_ms = 0;  ///< backoff gate while pending
    std::string last_error;
    enum class State { kPending, kRunning, kDone } state = State::kPending;
  };

  std::vector<std::string> command_for(const Slot& slot) const;

  ClusterConfig cfg_;
  fleet::MergeStats stats_;
};

}  // namespace msamp::cluster
