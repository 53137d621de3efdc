// Policy-lab sweep: expands a buffer-sharing policy x parameter grid into
// deterministic cells (one fully-specified FleetConfig each, named after
// its parameters), generates every cell's measurement day in-process
// through a SpillSink, and reduces each dataset to the comparison metrics
// the paper's contention story is built on (burst absorption, contention
// CDF, loss rate).
//
// Cells are just fleet runs: each carries its own FleetConfig
// fingerprint, so re-running a grid reproduces byte-identical datasets
// and therefore byte-identical summary tables, and a kept cell equals a
// direct `msampctl fleet` run (`cli_sweep` ctest proves both).  The
// policy catalogue lives in net/buffer_policy.h and docs/POLICIES.md; the
// CLI front end is `msampctl sweep`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fleet/config.h"
#include "fleet/dataset_view.h"
#include "net/buffer_policy.h"

namespace msamp::cluster {

/// The grid and how to run it.
struct SweepConfig {
  /// Scale/seed template every cell starts from; each cell overrides only
  /// the buffer-policy fields.
  fleet::FleetConfig base;

  /// Policies to expand, in row order.  Parameter lists apply to the
  /// policies they parameterize: `alphas` multiplies kDynamicThreshold,
  /// `boosts` multiplies kBurstAbsorbDt, `target_delays_ms` multiplies
  /// kDelayDriven; kStaticPartition/kCompleteSharing take one cell each.
  std::vector<net::BufferPolicy> policies = {
      net::BufferPolicy::kDynamicThreshold,
      net::BufferPolicy::kStaticPartition,
      net::BufferPolicy::kDelayDriven,
  };
  std::vector<double> alphas = {0.25, 1.0, 4.0};
  std::vector<double> boosts = {4.0};
  std::vector<double> target_delays_ms = {0.5};

  /// Where per-cell datasets (and the summary CSVs) are written.
  std::string out_dir = "sweep-out";
  /// Keep the per-cell dataset files after aggregation (default: delete;
  /// the summaries are the product).
  bool keep_datasets = false;
};

/// One grid cell: a name derived from its parameters ("dt-a0.25",
/// "static", "delay-d0.5", ...) and the fully-specified config.
struct SweepCell {
  std::string name;
  fleet::FleetConfig config;
};

/// Deterministic grid expansion: same SweepConfig -> same cells in the
/// same order with the same names.
std::vector<SweepCell> expand_grid(const SweepConfig& config);

/// Contention-CDF grid reported per cell, in percent.
inline constexpr int kSweepPercentiles[] = {10, 25, 50, 75, 90, 95, 99};

/// What one cell's measurement day reduced to.
struct CellSummary {
  std::string name;
  std::uint64_t fingerprint = 0;  ///< the cell config's fingerprint
  long bursts = 0;
  long contended = 0;  ///< bursts overlapping rack contention
  long lossy = 0;      ///< bursts overlapping switch discards
  double loss_kb_per_gb = 0.0;  ///< drop KB per delivered GB (rack runs)
  double ecn_mb_per_gb = 0.0;   ///< CE-marked MB per delivered GB
  /// Busy rack contention CDF: usable rack-runs' avg_contention at each
  /// kSweepPercentiles entry, in record order (deterministic).
  std::vector<double> contention_pct;

  double pct_contended() const {
    return bursts == 0 ? 0.0 : 100.0 * static_cast<double>(contended) /
                                   static_cast<double>(bursts);
  }
  double pct_lossy() const {
    return bursts == 0 ? 0.0 : 100.0 * static_cast<double>(lossy) /
                                   static_cast<double>(bursts);
  }
  /// Burst absorption: share of bursts the buffer rode out without loss.
  double pct_absorbed() const { return 100.0 - pct_lossy(); }
};

struct SweepResult {
  std::vector<CellSummary> cells;  ///< one per grid cell, grid order
};

/// Reduces one mapped dataset to its cell summary (exposed for tests).
CellSummary summarize_cell(const std::string& name,
                           const fleet::DatasetView& view);

/// Runs the whole grid.  `log` (optional) receives one line per cell.
/// Returns false with a reason in `*error` before the first cell runs
/// when a cell's config fails FleetConfig::validate(), else on the first
/// cell that fails (a generation or I/O error, unwritable out_dir, ...).
bool run_sweep(const SweepConfig& config, SweepResult* result,
               std::ostream* log = nullptr, std::string* error = nullptr);

}  // namespace msamp::cluster
