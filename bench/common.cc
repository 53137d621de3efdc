#include "common.h"

#include "util/thread_pool.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

namespace msamp::bench {

fleet::FleetConfig bench_config() {
  fleet::FleetConfig cfg;
  cfg.seed = 42;
  cfg.racks_per_region = 96;
  cfg.servers_per_rack = 92;
  cfg.hours = 24;
  cfg.samples_per_run = 700;
  // All cores; datasets are byte-identical for any thread count, so the
  // disk cache stays valid across serial and parallel runs alike.
  // MSAMP_THREADS=1 forces the serial sweep (e.g. for timing baselines).
  cfg.threads = 0;
  return cfg;
}

util::ThreadPool& bench_pool() {
  static util::ThreadPool pool(bench_config().threads);
  return pool;
}

const fleet::DatasetView& dataset_view() {
  // MSAMP_DATASET points the benches at a pre-built cache file — e.g. a
  // dataset assembled from shards with `msampctl merge` on a big host.
  // The file must fingerprint-match bench_config() and cover the full day
  // (shared_view checks both), else it is regenerated in place.  The
  // other documented MSAMP_* reader allowlisted by msamp_lint's
  // nondet-getenv rule (docs/STATIC_ANALYSIS.md): a cache *location*,
  // never data — the fingerprint check is what keeps it that way.
  const char* env = std::getenv("MSAMP_DATASET");
  const std::string cache_path =
      (env != nullptr && *env != '\0') ? env : "bench_out/fleet_dataset.bin";
  static bool announced = false;
  if (!announced) {
    announced = true;
    std::fprintf(stderr,
                 "[bench] loading fleet dataset (generated on first use "
                 "with %d thread(s); cached in %s)...\n",
                 util::ThreadPool::resolve(bench_config().threads),
                 cache_path.c_str());
  }
  return fleet::shared_view(bench_config(), cache_path);
}

namespace {

util::Series to_series(const std::string& name,
                       const std::vector<util::CdfPoint>& points) {
  util::Series s;
  s.name = name;
  for (const auto& p : points) {
    s.x.push_back(p.value);
    s.y.push_back(p.percent);
  }
  return s;
}

}  // namespace

util::Series cdf_series(const std::string& name, std::vector<double> samples,
                        std::size_t max_points) {
  return to_series(name, util::empirical_cdf(std::move(samples), max_points));
}

util::Series cdf_series_counts(const std::string& name,
                               const std::vector<std::uint64_t>& counts,
                               std::size_t max_points) {
  return to_series(name, util::empirical_cdf_counts(counts, max_points));
}

void print_cdf_figure(const std::string& name, const std::string& title,
                      const std::string& x_label,
                      std::vector<util::Series> series) {
  util::PlotOptions opt;
  opt.title = title;
  opt.x_label = x_label;
  opt.y_label = "% (CDF)";
  opt.y_min = 0.0;
  opt.y_max = 100.0;
  util::ascii_plot(std::cout, series, opt);

  // Key quantiles as a table + full series as CSV.
  util::Table table({"series", "p10", "p25", "p50", "p75", "p90", "p99"});
  for (const auto& s : series) {
    // Invert the CDF at the requested percentiles.
    auto value_at = [&s](double pct) {
      for (std::size_t i = 0; i < s.y.size(); ++i) {
        if (s.y[i] >= pct) return s.x[i];
      }
      return s.x.empty() ? 0.0 : s.x.back();
    };
    table.row()
        .cell(s.name)
        .cell(value_at(10), 2)
        .cell(value_at(25), 2)
        .cell(value_at(50), 2)
        .cell(value_at(75), 2)
        .cell(value_at(90), 2)
        .cell(value_at(99), 2);
  }
  emit_table(name, table);

  util::Table csv({"series", "value", "percent"});
  for (const auto& s : series) {
    for (std::size_t i = 0; i < s.x.size(); ++i) {
      csv.row().cell(s.name).cell(s.x[i], 6).cell(s.y[i], 3);
    }
  }
  csv.write_csv_file("bench_out/" + name + "_series.csv");
}

void emit_table(const std::string& name, const util::Table& table) {
  table.print(std::cout);
  table.write_csv_file("bench_out/" + name + ".csv");
}

void header(const std::string& id, const std::string& paper_claim) {
  std::cout << "\n==== " << id << " ====\n"
            << "paper: " << paper_claim << "\n\n";
}

}  // namespace msamp::bench
