// Fingerprint-checked dataset merge: folds the shards of one measurement
// day (generated by `run_fleet(config, shard, sink)` in any number of
// processes, on any machines, with any thread counts) back into the full
// Dataset, byte-identical to a single-process `run_fleet(config)` run.
//
// `merge_shards` maps each shard file read-only (fleet/dataset_view.h —
// every shard is fully validated by the v6 open) and hands the one v6
// writer (fleet/wire.h) the shards' mapped server-run and burst columns,
// so merging a day never requires holding the day's record vectors in
// memory — only the per-window count table and the rack-run table (a
// handful of bytes per window) plus one write buffer.  In-memory shards
// are merged by saving them first (`Dataset::save`).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/dataset.h"

namespace msamp::fleet {

/// What a successful `merge_shards` folded, for logs and progress output.
struct MergeStats {
  std::uint64_t fingerprint = 0;  ///< the shards' (validated) fingerprint
  FleetConfig config;             ///< the shards' (byte-equal) config
  std::uint64_t shards = 0;
  std::uint64_t windows = 0;
  std::uint64_t rack_runs = 0;
  std::uint64_t server_runs = 0;
  std::uint64_t bursts = 0;
  std::uint64_t bytes_written = 0;
};

/// Merges the shard files of one day (paths in any order) into a full
/// dataset file at `out_path`, written via atomic rename.
///
/// Validates before writing anything:
///  - every shard opens as a valid v6 file (header, layout, window
///    directory tie-out — see DatasetView),
///  - every shard carries the same fingerprint (same config, same model
///    version), the same config bytes (the error names the first
///    differing field) and the same shard count,
///  - coverage is exact — each shard index 0..count-1 present exactly
///    once, window ranges tiling the canonical sequence with no gaps or
///    overlaps,
///  - every shard carries the identical rack table.
///
/// Records are folded in canonical window order (a pure column
/// concatenation, with the window directory's running offsets recomputed
/// globally), exemplars re-selected first-in-canonical-order, and
/// busy-hour classification recomputed, so the output is byte-identical
/// to a single-process run.  The bulky record sections (server runs,
/// bursts) are copied mapping-to-file and never materialized.
///
/// Returns an error Status (path, offset, reason) on any validation or
/// I/O failure; `out_path` is left untouched in that case.
util::Status merge_shards(const std::vector<std::string>& paths,
                          const std::string& out_path,
                          MergeStats* stats = nullptr);

}  // namespace msamp::fleet
