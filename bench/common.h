// Shared infrastructure for the figure/table bench binaries: dataset
// access (generated once, cached on disk under bench_out/), parallel
// window execution, CDF printing, and CSV export.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/rack_classify.h"
#include "fleet/dataset_view.h"
#include "fleet/fleet_runner.h"
#include "util/ascii_plot.h"
#include "util/parallel_map.h"
#include "util/stats.h"
#include "util/table.h"

namespace msamp::bench {

/// The scale every figure bench runs at (scaled-down fleet; see DESIGN.md).
fleet::FleetConfig bench_config();

/// The shared pool the bench binaries run their simulation windows on.
/// Sized like the fleet runner: all hardware cores by default, pinned by
/// the MSAMP_THREADS environment variable (=1 for a fully serial run).
util::ThreadPool& bench_pool();

/// Runs body(0) ... body(n-1) — one call per independent simulation
/// window — on bench_pool() and returns the results in canonical index
/// order.  Same determinism contract as `fleet::run_fleet`: a window must
/// depend only on its index (fork RNGs from a keyed seed, never from
/// execution order), and callers reduce the returned vector in index
/// order, so every table and CSV a bench emits is byte-identical for any
/// thread count.
template <typename Fn>
auto parallel_windows(std::size_t n, Fn&& body) {
  return util::parallel_map(bench_pool(), n, std::forward<Fn>(body));
}

/// The shared dataset, as a zero-copy mapped view (generated on first
/// use, cached under bench_out/).  Set MSAMP_DATASET=/path/to/dataset.bin
/// to use a pre-built cache — e.g. one assembled from `msampctl fleet
/// --shard I/N` runs via `msampctl merge` at the bench scale/seed; a
/// fingerprint mismatch or partial shard file is regenerated, never
/// silently served.  Benches read the v6 columns straight from the
/// mapping — no record vectors are materialized.
const fleet::DatasetView& dataset_view();

/// Prints an empirical-CDF figure: ASCII plot + downsampled value table,
/// and writes the full series to bench_out/<name>.csv.
void print_cdf_figure(const std::string& name, const std::string& title,
                      const std::string& x_label,
                      std::vector<util::Series> series);

/// Writes a table to stdout and bench_out/<name>.csv.
void emit_table(const std::string& name, const util::Table& table);

/// Builds a CDF series from samples.
util::Series cdf_series(const std::string& name, std::vector<double> samples,
                        std::size_t max_points = 64);

/// Builds the same CDF series from counts per value (`counts[v]` samples
/// have the value v): the series `cdf_series` makes of the expanded samples.
util::Series cdf_series_counts(const std::string& name,
                               const std::vector<std::uint64_t>& counts,
                               std::size_t max_points = 64);

/// Prints the standard bench header.
void header(const std::string& id, const std::string& paper_claim);

}  // namespace msamp::bench
