// Fleet runner: generates placements for both regions, simulates hourly
// SyncMillisampler windows on every rack for a full day, streams each
// window through the analysis pipeline, and assembles the distilled
// Dataset.  Windows run concurrently on `FleetConfig::threads` lanes
// (deterministic: every thread count yields byte-identical datasets —
// see docs/PERFORMANCE.md for the contract).
//
// Generation is shard-aware: `run_fleet(config, shard, sink)` simulates
// one contiguous slice of the canonical window sequence and streams each
// completed window into a WindowSink in canonical order, so a day can be
// split across processes and machines and the shard files merged back
// (fleet/merge.h) into bytes identical to a single-process run.  The
// historic `run_fleet(config) -> Dataset` wraps the full-range shard and
// the in-memory reference DatasetBuilder for tests and examples.
// `shared_view` adds a disk cache so all bench binaries reuse one
// generation pass.
#pragma once

#include <functional>
#include <string>

#include "fleet/dataset.h"
#include "fleet/shard.h"

namespace msamp::fleet {

/// Simulates the windows of `shard` (its canonical slice of the
/// (region, hour, rack) sequence) on `config.threads` lanes (positive =
/// exact count; 0 = MSAMP_THREADS if set, else all cores) and streams
/// each completed window into `sink` strictly in canonical window order,
/// one call at a time, from the lane that completes it (see WindowSink).
/// Windows are handed over in bounded chunks, so peak memory is a few
/// chunks of window records — never the whole shard, let alone the whole
/// day.  `progress` (optional) is invoked serially after each committed
/// window with a strictly increasing fraction of the *shard's* windows
/// that ends at exactly 1.0 (also for empty shards).  When the sink or
/// `progress` throws, no later window reaches the sink and the exception
/// is rethrown here once the lanes drain.  Throws std::invalid_argument
/// if `shard` or `config` (FleetConfig::validate()) is invalid.
void run_fleet(const FleetConfig& config, const ShardSpec& shard,
               WindowSink& sink,
               std::function<void(double)> progress = nullptr);

/// Generates the full dataset in RAM: the full-range shard streamed into
/// a DatasetBuilder (for tests and examples; commands write through a
/// SpillSink).  Same determinism contract as above — the result is
/// byte-identical for any thread count, and to any shard split merged
/// with merge_shards.
Dataset run_fleet(const FleetConfig& config,
                  std::function<void(double)> progress = nullptr);

/// Returns a process-wide mapped view of the dataset for `config`,
/// reusing `cache_path` when its config bytes and fingerprint match and
/// it covers the full day (a partial shard file is never silently
/// served), otherwise generating it through a SpillSink (bounded RSS even
/// at cluster scale) and mapping the result.  The default path keeps bench
/// binaries in one cache.  This is the read path of every bench/analysis
/// consumer: records stream from the mapping, zero-copy.  Safe for
/// concurrent first-callers: exactly one thread generates, the rest block
/// and then share the same instance; the cache file is written via an
/// atomic rename so a crashed run never leaves a truncated file.  Throws
/// std::runtime_error when the cache can neither be opened nor rebuilt,
/// and std::invalid_argument on an invalid config.
const DatasetView& shared_view(const FleetConfig& config = {},
                               const std::string& cache_path =
                                   "bench_out/fleet_dataset.bin");

/// The generator's model version (the kModelVersion constant folded into
/// every FleetConfig fingerprint).  Exposed for `msampctl version` so bug
/// reports pin the exact behavior revision a dataset came from.
std::uint64_t model_version() noexcept;

}  // namespace msamp::fleet
