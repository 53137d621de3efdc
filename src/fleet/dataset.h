// The reproduction dataset: compact per-burst / per-server-run / per-rack-
// run records distilled from every SyncMillisampler window (the raw series
// would be the paper's 8.16B samples; the analyses of §6-§8 only need these
// summaries).  Includes binary (de)serialization so bench binaries share
// one generated dataset through a disk cache.
//
// Datasets are shard-aware: a file carries a shard header (which contiguous
// slice of the canonical window sequence it covers, plus per-window record
// counts), so partial datasets produced by `run_fleet(config, shard, sink)`
// are first-class files that `merge_shards` (fleet/merge.h) can validate
// and fold back into the full day, byte-identical to a single-process run.
// The one v6 writer (fleet/wire.h) writes every record field by field (no
// struct padding ever reaches the file), which is what makes
// "byte-identical across processes and machines" a checkable contract
// rather than an ABI accident.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/rack_classify.h"
#include "fleet/config.h"
#include "util/status.h"
#include "workload/region_id.h"

namespace msamp::fleet {

class DatasetView;

/// Which contiguous slice of the canonical (hour-major, rack-minor) window
/// sequence a generation run covers.  `{0, 1}` is the full day.  The
/// partition is deterministic and balanced: shard i of n owns windows
/// [total*i/n, total*(i+1)/n), so every window belongs to exactly one
/// shard, shards differ in size by at most one window, and `count` may
/// exceed the window count (trailing shards are empty).
struct ShardSpec {
  std::uint32_t index = 0;
  std::uint32_t count = 1;

  bool valid() const { return count >= 1 && index < count; }
  /// True when this spec covers the whole canonical window range.
  bool full_range() const { return count == 1; }

  std::size_t begin(std::size_t total_windows) const {
    return static_cast<std::size_t>(
        static_cast<std::uint64_t>(total_windows) * index / count);
  }
  std::size_t end(std::size_t total_windows) const {
    return static_cast<std::size_t>(
        static_cast<std::uint64_t>(total_windows) * (index + 1) / count);
  }
};

/// Per-window record counts, serialized in the shard header so a merge can
/// pre-size the folded vectors and validate every shard's contribution
/// against what its windows actually produced.
struct WindowCounts {
  std::uint8_t has_run = 0;        ///< window produced a RackRunRecord
  std::uint32_t server_runs = 0;
  std::uint32_t bursts = 0;
};

/// One detected burst (drives Table 2 and Figures 7, 16, 18, 19).
struct BurstRecord {
  std::uint32_t rack_id = 0;
  std::uint8_t region = 0;  ///< RegionId
  std::uint8_t hour = 0;
  std::uint16_t len_ms = 0;
  float volume_bytes = 0.0f;
  std::uint16_t max_contention = 0;  ///< max over the burst's samples
  float avg_conns = 0.0f;            ///< mean connection estimate in-burst
  std::uint8_t contended = 0;        ///< saw contention >= 2 at any sample
  std::uint8_t lossy = 0;            ///< retx attributed to this burst
};

/// One server's observation window (Figures 6, 8; §6 utilization stats).
struct ServerRunRecord {
  std::uint32_t rack_id = 0;
  std::uint8_t region = 0;
  std::uint8_t hour = 0;
  std::uint8_t bursty = 0;
  float avg_util = 0.0f;
  float util_inside = 0.0f;
  float util_outside = 0.0f;
  float bursts_per_sec = 0.0f;
  float conns_inside = 0.0f;
  float conns_outside = 0.0f;
};

/// One rack observation window (Figures 9, 12-15, 17; Table 1).
struct RackRunRecord {
  std::uint32_t rack_id = 0;
  std::uint8_t region = 0;
  std::uint8_t hour = 0;
  std::uint8_t usable = 0;        ///< p90 contention > 0 (§7.3 exclusion)
  float avg_contention = 0.0f;
  std::uint16_t min_active_contention = 0;
  std::uint16_t p90_contention = 0;
  std::uint16_t max_contention = 0;
  double in_bytes = 0.0;          ///< delivered ingress volume this window
  double drop_bytes = 0.0;        ///< switch congestion discards
  double ecn_bytes = 0.0;
};

/// Static per-rack metadata + derived classification.
struct RackInfo {
  std::uint32_t rack_id = 0;
  std::uint8_t region = 0;
  std::uint8_t ml_dense = 0;      ///< placement ground truth
  std::uint16_t distinct_tasks = 0;
  float dominant_share = 0.0f;
  float intensity = 0.0f;
  float busy_hour_avg_contention = 0.0f;
  std::uint8_t rack_class = 0;    ///< analysis::RackClass, measured
};

/// Raster + contention series of one exemplar run (Figure 5).
struct ExemplarRun {
  std::uint32_t rack_id = 0;
  float avg_contention = 0.0f;
  std::uint16_t num_servers = 0;
  std::uint16_t num_samples = 0;
  /// Row-major [server][sample] burstiness bits.
  std::vector<std::uint8_t> raster;
  std::vector<std::uint16_t> contention;
};

/// The distilled dataset — the full day, or one shard of it.  A shard
/// carries the complete rack table (placement is cheap and identical in
/// every shard) but only the run/burst records of its window range, and
/// leaves the busy-hour classification fields zeroed; `merge_shards`
/// recomputes them once coverage is complete.
struct Dataset {
  std::uint64_t fingerprint = 0;  ///< FleetConfig::fingerprint() at creation
  FleetConfig config;             ///< serialized except `threads` (0 on load)
  ShardSpec shard;                ///< which slice of the day this holds
  std::uint64_t window_begin = 0;  ///< first canonical window index covered
  std::uint64_t window_end = 0;    ///< one past the last covered window
  /// One entry per covered window, in canonical order.
  std::vector<WindowCounts> window_counts;
  std::vector<RackInfo> racks;
  std::vector<RackRunRecord> rack_runs;
  std::vector<ServerRunRecord> server_runs;
  std::vector<BurstRecord> bursts;
  ExemplarRun low_contention_example;
  ExemplarRun high_contention_example;

  /// Measured class of a rack (RegA-Typical / RegA-High / RegB).
  analysis::RackClass class_of(std::uint32_t rack_id) const;

  /// Serializes to the current (v6, columnar) wire format.
  std::vector<std::uint8_t> serialize() const;
  /// Parses a v6 blob (validated through DatasetView::attach, then
  /// materialized via from_view).
  bool deserialize(const std::vector<std::uint8_t>& blob);

  /// Writes the v6 file atomically (temp + rename).
  util::Status save(const std::string& path) const;

  /// Maps a v6 file read-only with zero-copy column access (the read path
  /// of every bench/analysis consumer; see fleet/dataset_view.h).
  static util::Status open_mapped(const std::string& path, DatasetView* out);

  /// Materializes a Dataset from a view, so write-side callers (builders,
  /// merges, tests) keep working with owned vectors.
  static Dataset from_view(const DatasetView& view);
};

}  // namespace msamp::fleet
