// Shared pieces of msamp_bench: workload scale, program locations, the
// build stamp, output digests, summary statistics, and the seed derivation
// that gives every seed the same cluster fault load.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "fleet/config.h"

namespace msamp::perfbench {

namespace fs = std::filesystem;

/// Every size the workloads and the traced profile run at.  `full()` is
/// what the benchmark measures; `smoke()` is the toy scale of --smoke.
struct Scale {
  int racks = 8;  ///< racks per region: day and cluster-faults
  int hours = 24;
  int samples = 700;
  int lanes = 4;            ///< threads in one process, or workers x 1
  double fault_rate = 0.7;  ///< cluster-faults worker self-kill odds
  /// Hold the fault load fixed across seeds (see derive_data_seed).
  bool fault_band = true;
  int sweep_racks = 1;
  int packet_windows = 32;
  int packet_servers = 16;
  int packet_samples = 25;
  int figure_passes = 3;
  int trace_racks = 2;  ///< racks per region of the traced day
  bool bench_day = true;  ///< figures read the 96-rack bench day

  static Scale full() { return {}; }
  static Scale smoke();
};

/// Where the programs under test live (baked in at build time).
struct Programs {
  std::string msampctl;
  std::string self;  ///< this binary, for the --child roles
  fs::path figure_dir;
  std::vector<std::string> figures;  ///< bench_fig*/bench_table* names
};
Programs programs(const char* argv0);

/// `msampctl version` fields that identify a build.
struct Stamp {
  std::map<std::string, std::string> fields;  ///< raw version table
  int nproc = 0;
  std::string get(const std::string& key) const;
  bool optimized() const { return get("optimized") == "yes"; }
  bool sanitized() const { return get("sanitizer") != "none"; }
  /// JSON object with nproc, lanes and the version fields.
  std::string json(int lanes) const;
};
/// Runs `msampctl version`; empty fields when it cannot run.
Stamp read_stamp(const Programs& programs, const fs::path& scratch);

/// FNV-1a 64 of a file's bytes, as 16 hex digits ("" if unreadable).
std::string file_digest(const fs::path& path);
/// FNV-1a 64 of `text`, as 16 hex digits.
std::string text_digest(const std::string& text);

/// The fleet configuration of the day / cluster-faults workloads.
fleet::FleetConfig day_config(const Scale& scale, std::uint64_t data_seed,
                              int racks);

/// `msampctl <verb>` with the scale and seed flags of `config`.
std::vector<std::string> msampctl_argv(const Programs& programs,
                                       const std::string& verb,
                                       const fleet::FleetConfig& config);
/// `msampctl fleet` on `threads` lanes writing `out`.
std::vector<std::string> fleet_argv(const Programs& programs,
                                    const fleet::FleetConfig& config,
                                    int threads, const std::string& out);
/// `msampctl cluster` with `workers` single-lane workers writing `out`.
std::vector<std::string> cluster_argv(const Programs& programs,
                                      const fleet::FleetConfig& config,
                                      int workers, double fault_rate,
                                      const std::string& out);

/// The generation seed behind a --seed.  The cluster-faults workload
/// injects worker kills whose number and placement are keyed on the data
/// seed, so raw seeds would give each run a different amount of wasted and
/// retried work.  This walks a deterministic candidate sequence starting
/// at `seed` itself and returns the first whose fault plan has two shards
/// failing exactly twice, the other shards never, and (when
/// `scale.fault_band`) killed work inside a fixed band — the load seed 42
/// itself has.  All fluid workloads use the derived seed, so day and
/// cluster-faults generate the same day.
std::uint64_t derive_data_seed(std::uint64_t seed, const Scale& scale);

/// A well-mixed seed for item `i` of the inputs made from `seed`.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t i);

/// Attempts, failed attempts and logged backoff the coordinator will
/// report for the cluster-faults configuration (from cluster::fault_plan).
struct FaultLoad {
  int attempts = 0;
  int failed = 0;
  int backoff_ms = 0;
};
FaultLoad predict_fault_load(const fleet::FleetConfig& config, int workers,
                             double fault_rate);
/// The same three numbers counted from a coordinator log ("attempt N
/// started", "attempt N failed (...); retrying in Xms").
FaultLoad parse_coordinator_log(const std::string& log);

/// Summary of a sample: median and quartiles as Python's
/// statistics.quantiles(values, n=4) computes them (exclusive method).
struct Summary {
  double median = 0.0, q1 = 0.0, q3 = 0.0, min = 0.0, max = 0.0;
  std::size_t n = 0;
};
Summary summarize(std::vector<double> values);

/// `v` with 6 significant digits, for tables.
std::string format_g(double v);

/// Writes `text` to `path`; false on I/O failure.
bool write_file(const fs::path& path, const std::string& text);
std::string read_file(const fs::path& path);

}  // namespace msamp::perfbench
