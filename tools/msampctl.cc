// msampctl — command-line front end to the millisampler-repro library.
//
//   msampctl simulate-rack [--servers N] [--task KIND] [--intensity X]
//                          [--samples N] [--hour H] [--seed S]
//                          [--out trace.csv]
//       Simulate one rack observation window and export the
//       SyncMillisampler trace (msamp-sync-trace CSV).  --servers and
//       --samples must lie in [0, 65535] and --seed must be >= 0.
//
//   msampctl analyze --trace trace.csv
//       Run burst/contention/loss analysis on a trace file.
//
//   msampctl fleet [--racks N] [--hours H] [--samples N] [--seed S]
//                  [--threads T] [--shard I/N] [--out dataset.bin]
//                  [policy flags]
//       Generate a two-region measurement day and stream the distilled
//       dataset to --out through the disk-backed spill sink (peak RSS is
//       a few spill chunks plus the day's small tables; an interrupted
//       run can leave `<out>.spill-*` temps, which the next run removes).
//       --racks, --hours, --samples, --seed and --threads must be >= 0,
//       --hours <= 256 and --samples <= 65535 (a record's u8 hour and
//       u16 sample count).
//       The buffer-sharing policy flags — shared with `cluster`,
//       `worker`, and `sweep` — select the MMU discipline (see
//       docs/POLICIES.md): --policy dt|static|complete|burst-absorb|delay,
//       --alpha A (DT alpha), --boost B (burst-absorb alpha multiplier),
//       --target-delay D (delay-driven target, ms).
//       An explicit --threads N wins; --threads 0 (the default)
//       defers to the MSAMP_THREADS environment variable, else uses every
//       hardware core.  --shard I/N generates only shard I of an N-way
//       split of the day (a first-class partial dataset file); run the N
//       shards in as many processes or machines as you like and fold them
//       back with `msampctl merge`.  Any thread count and any shard split
//       produce byte-identical output for a given --seed.
//
//   msampctl merge shard0.bin shard1.bin ... [--out dataset.bin]
//       Validate (fingerprint, shard coverage, per-window record counts)
//       and merge shard files into the full dataset — byte-identical to a
//       single-process `msampctl fleet` run at the same seed and scale.
//       Streams section-by-section, so merging never holds the day's
//       records in memory.
//
//   msampctl cluster [--workers N] [fleet flags] [--out dataset.bin]
//                    [--shard-dir D] [--keep-shards 1] [--max-parallel M]
//                    [--stall-ms T] [--retry-max A] [--retry-base-ms B]
//                    [--fault-rate p]
//       Fault-tolerant multi-process generation: N worker processes (one
//       per shard, re-exec'd `msampctl worker`), crash/stall detection,
//       capped-backoff retries, then a streaming merge — byte-identical
//       to `msampctl fleet` at the same seed and scale, even under
//       injected worker kills (--fault-rate, test-only).  docs/CLUSTER.md
//       has the architecture and the worker heartbeat protocol.
//
//   msampctl worker --shard I/N --out shard.bin [fleet flags]
//                   [--attempt A] [--fault-rate p]
//       The cluster worker role (normally spawned by `msampctl cluster`,
//       but usable standalone): generates one shard through the same
//       spill sink as `fleet` and emits `msamp-hb` heartbeat lines on
//       stdout.
//
//   msampctl sweep [--policies dt,static,delay] [--alphas 0.25,1,4]
//                  [--boosts 4] [--target-delays 0.5] [--out-dir D]
//                  [--keep-datasets 1] [fleet scale flags]
//       Policy lab: expand the buffer-sharing policy x parameter grid
//       into deterministic cells, generate each cell's measurement day
//       in-process through the spill sink, one cell after another, and
//       emit the comparison tables — burst absorption, contention CDF,
//       and loss per policy — plus sweep_summary.csv /
//       sweep_contention_cdf.csv under --out-dir.  Re-runs are
//       byte-identical; docs/POLICIES.md has a worked walkthrough.
//
//   msampctl report --dataset dataset.bin
//       Print the §7/§8 headline statistics of a saved dataset.  The file
//       is mapped read-only (zero-copy), never loaded.
//
//   msampctl query --dataset dataset.bin [--region A|B] [--hour H]
//                  [--racks LO-HI] [--class typical|high|regb]
//                  [--what summary|windows|bursts] [--limit N]
//       Select observation windows of a mapped v6 dataset by region,
//       hour, rack-id range, and measured rack class, and print either a
//       per-window table (--what windows), the selected windows' burst
//       records (--what bursts; --limit rows, default 20, 0 = all), or an
//       aggregate summary (--what summary, the default).  Reads stream
//       from the mapping, so querying a cluster-scale day stays at a
//       bounded RSS.
//
//   msampctl version
//       Print the build's identity: dataset wire-format version, model
//       (generator behavior) version, compiler and build flags, and the
//       SIMD dispatch state — compiled+supported paths, the detected
//       best path, the active path, and whether an MSAMP_SIMD override
//       was honored.  The first thing a bug report needs; the output is
//       one `field value` table, so scripts can awk out single fields
//       (scripts/check_dataset_determinism.sh does).
//
// Every command is deterministic for a given --seed.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/burst_stats.h"
#include "analysis/diagnose.h"
#include "analysis/contention.h"
#include "analysis/trace_io.h"
#include "cluster/coordinator.h"
#include "cluster/sweep.h"
#include "cluster/worker.h"
#include "net/buffer_policy.h"
#include "fleet/aggregate.h"
#include "fleet/dataset_view.h"
#include "fleet/fleet_runner.h"
#include "fleet/fluid_rack.h"
#include "fleet/merge.h"
#include "fleet/spill_sink.h"
#include "fleet/wire.h"
#include "util/flags.h"
#include "util/simd/simd.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "workload/diurnal.h"

using namespace msamp;
using util::Flags;

namespace {

void usage();

/// Prints a usage error and exits with status 2, which the cluster
/// coordinator does not retry.
[[noreturn]] void die_usage(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  usage();
  std::exit(cluster::kUsageExitCode);
}

workload::TaskKind parse_task(const std::string& name) {
  for (int k = 0; k < workload::kNumTaskKinds; ++k) {
    const auto kind = static_cast<workload::TaskKind>(k);
    if (workload::task_name(kind) == name) return kind;
  }
  std::cerr << "unknown task '" << name << "', using cache; options:";
  for (int k = 0; k < workload::kNumTaskKinds; ++k) {
    std::cerr << " "
              << workload::task_name(static_cast<workload::TaskKind>(k));
  }
  std::cerr << "\n";
  return workload::TaskKind::kCache;
}

/// --seed, which must not be negative: cast to the u64 seed it would
/// quietly wrap in-process, while a cluster's workers reject it.
std::uint64_t seed_flag(const Flags& flags) {
  const long v = flags.num("seed", 42);
  if (v < 0) {
    throw util::UsageError("--seed " + std::to_string(v) +
                           " must not be negative");
  }
  return static_cast<std::uint64_t>(v);
}

/// A scale flag's value, which must lie in [0, max]: a negative scale
/// has no day, and one past `max` would wrap a record's narrow field.
/// --threads goes through here too, so a negative count cannot quietly
/// mean the default.
int scale_flag(const Flags& flags, const std::string& key, long fallback,
               long max) {
  const long v = flags.num(key, fallback);
  if (v < 0 || v > max) {
    throw util::UsageError("--" + key + " " + std::to_string(v) +
                           " out of range [0, " + std::to_string(max) + "]");
  }
  return static_cast<int>(v);
}

int cmd_simulate_rack(const Flags& flags) {
  workload::RackMeta rack;
  rack.rack_id = 1;
  rack.region = workload::RegionId::kRegA;
  rack.intensity = flags.real("intensity", 1.5);
  // Same u16 bound as a fleet run's --samples; zero writes an empty trace.
  const int servers = scale_flag(flags, "servers", 92, 65535);
  const auto kind = parse_task(flags.str("task", "cache"));
  rack.server_service.assign(static_cast<std::size_t>(servers), 0);
  rack.server_kind.assign(static_cast<std::size_t>(servers), kind);

  fleet::FleetConfig cfg;
  cfg.samples_per_run = scale_flag(flags, "samples", 1000, 65535);
  fleet::FluidRack fluid(rack, cfg, static_cast<int>(flags.num("hour", 6)),
                         util::Rng(seed_flag(flags)));
  const auto result = fluid.run();
  const std::string out = flags.str("out", "trace.csv");
  if (!analysis::write_sync_trace_file(result.sync, out)) {
    std::cerr << "error: cannot write " << out << "\n";
    return 1;
  }
  std::cout << "wrote " << out << ": " << result.sync.num_servers()
            << " servers x " << result.sync.num_samples()
            << " x 1ms samples; switch dropped "
            << util::format_bytes(static_cast<double>(result.drop_bytes))
            << " of "
            << util::format_bytes(static_cast<double>(result.delivered_bytes))
            << " delivered\n";
  return 0;
}

int cmd_analyze(const Flags& flags) {
  const std::string path = flags.str("trace", "trace.csv");
  const auto run = analysis::read_sync_trace_file(path);
  if (!run.has_value()) {
    std::cerr << "error: cannot parse " << path << "\n";
    return 1;
  }
  const analysis::BurstDetectConfig burst_cfg{
      .line_rate_gbps = flags.real("gbps", 12.5), .interval = run->interval};
  const auto contention = analysis::contention_series(*run, burst_cfg);
  const auto summary = analysis::summarize_contention(contention);
  std::size_t bursts = 0, lossy = 0, bursty_servers = 0;
  std::vector<double> lengths;
  for (const auto& series : run->series) {
    const auto detected = analysis::detect_bursts(series, burst_cfg);
    const auto lossy_flags = analysis::lossy_bursts(series, detected, {});
    bursts += detected.size();
    bursty_servers += !detected.empty();
    for (bool l : lossy_flags) lossy += l;
    for (const auto& b : detected) {
      lengths.push_back(static_cast<double>(b.len));
    }
  }
  util::Table table({"metric", "value"});
  table.add_row({"servers", std::to_string(run->num_servers())});
  table.add_row({"samples", std::to_string(run->num_samples())});
  table.add_row({"avg contention", util::format_double(summary.avg, 2)});
  table.add_row({"p90 contention", std::to_string(summary.p90)});
  table.add_row({"max contention", std::to_string(summary.max)});
  table.add_row({"bursty servers", std::to_string(bursty_servers)});
  table.add_row({"bursts", std::to_string(bursts)});
  table.add_row({"median burst length (ms)",
                 util::format_double(util::percentile(lengths, 50), 1)});
  table.add_row({"lossy bursts", std::to_string(lossy)});
  const auto report = analysis::diagnose(*run, {});
  table.add_row({"measurement artifacts (kernel stalls)",
                 report.measurement_artifacts ? "DETECTED" : "none"});
  table.print(std::cout);
  if (!report.loss_hotspots.empty()) {
    std::cout << "loss hotspots (servers):";
    for (auto s_idx : report.loss_hotspots) std::cout << " " << s_idx;
    std::cout << "\n";
  }
  return 0;
}

/// The CLI-expressible FleetConfig fields, parsed identically for
/// `fleet`, `cluster`, `worker`, and `sweep` — the cluster coordinator
/// re-execs workers with exactly these flags (cluster::Coordinator::
/// command_for), so the commands must agree on names and defaults or the
/// workers' fingerprints would diverge.
fleet::FleetConfig fleet_config_from_flags(const Flags& flags) {
  fleet::FleetConfig cfg;
  cfg.seed = seed_flag(flags);
  cfg.racks_per_region =
      scale_flag(flags, "racks", 32, std::numeric_limits<int>::max());
  // Records store the hour in a u8 and a run's sample count in a u16.
  cfg.hours = scale_flag(flags, "hours", 24, 256);
  cfg.samples_per_run = scale_flag(flags, "samples", 500, 65535);
  // 0 asks for the default; the pool clamps any count to 1024.
  cfg.threads =
      scale_flag(flags, "threads", 0, std::numeric_limits<int>::max());
  const std::string policy = flags.str("policy", "dt");
  if (!net::parse_policy(policy, &cfg.buffer.policy)) {
    throw util::UsageError("unknown --policy '" + policy +
                           "' (dt|static|complete|burst-absorb|delay)");
  }
  cfg.buffer.alpha = flags.real("alpha", cfg.buffer.alpha);
  cfg.buffer.burst_alpha_boost =
      flags.real("boost", cfg.buffer.burst_alpha_boost);
  cfg.buffer.delay.target_delay_ms =
      flags.real("target-delay", cfg.buffer.delay.target_delay_ms);
  return cfg;
}

/// The shared buffer-policy flags (appended to each command's scale
/// flags below).
const std::vector<std::string> kPolicyFlags = {"policy", "alpha", "boost",
                                               "target-delay"};

std::vector<std::string> with_policy_flags(std::vector<std::string> flags) {
  flags.insert(flags.end(), kPolicyFlags.begin(), kPolicyFlags.end());
  return flags;
}

/// Parses a comma-separated list of doubles ("0.25,1,4").
std::vector<double> parse_double_list(const std::string& text,
                                      const std::string& flag) {
  std::vector<double> values;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string tok =
        text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    std::size_t used = 0;
    double v = 0.0;
    try {
      v = std::stod(tok, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != tok.size() || tok.empty()) {
      throw util::UsageError("bad --" + flag + " entry '" + tok + "'");
    }
    values.push_back(v);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return values;
}

int cmd_fleet(const Flags& flags) {
  const fleet::FleetConfig cfg = fleet_config_from_flags(flags);
  const auto [shard_index, shard_count] = flags.index_count("shard", {0, 1});
  const fleet::ShardSpec shard{static_cast<std::uint32_t>(shard_index),
                               static_cast<std::uint32_t>(shard_count)};
  std::cout << "generating " << 2 * cfg.racks_per_region << " racks x "
            << cfg.hours << " hours";
  if (!shard.full_range()) {
    std::cout << " (shard " << shard.index << "/" << shard.count << ")";
  }
  std::cout << " on " << util::ThreadPool::resolve(cfg.threads)
            << " thread(s)...\n";
  const std::string out = flags.str("out", "dataset.bin");
  util::Status st;
  try {
    fleet::SpillSink sink(cfg, shard, out);
    fleet::run_fleet(cfg, shard, sink, [](double p) {
      std::cout << "  " << static_cast<int>(100 * p) << "%\r" << std::flush;
    });
    st = sink.finalize();
  } catch (const std::exception& e) {
    st = util::Status::error(e.what());
  }
  // The counts come from the written file: the sink keeps no records.
  fleet::DatasetView ds;
  if (st) st = fleet::Dataset::open_mapped(out, &ds);
  if (!st) {
    std::cerr << "error: " << st.to_string() << "\n";
    return 1;
  }
  std::cout << "\nwrote " << out << ": " << ds.rack_runs().size()
            << " rack runs, " << ds.server_runs().size() << " server runs, "
            << ds.bursts().size() << " bursts";
  if (!shard.full_range()) {
    std::cout << " (windows [" << ds.window_begin() << ", " << ds.window_end()
              << ") of " << 2 * cfg.racks_per_region * cfg.hours
              << "; fold with `msampctl merge`)";
  }
  std::cout << "\n";
  return 0;
}

int cmd_merge(const Flags& flags) {
  const auto& paths = flags.positionals();
  if (paths.empty()) {
    die_usage("merge needs at least one shard file "
              "(msampctl merge shard0.bin shard1.bin ... --out dataset.bin)");
  }
  const std::string out = flags.str("out", "dataset.bin");
  fleet::MergeStats stats;
  // Streaming merge: the bulky record sections are copied
  // mapping-to-file through a bounded buffer, so this never loads a
  // whole day.
  if (auto st = fleet::merge_shards(paths, out, &stats); !st) {
    std::cerr << "error: " << st.to_string() << "\n";
    return 1;
  }
  std::cout << "merged " << stats.shards << " shard(s) into " << out << ": "
            << stats.rack_runs << " rack runs, " << stats.server_runs
            << " server runs, " << stats.bursts << " bursts\n";
  return 0;
}

int cmd_worker(const Flags& flags) {
  cluster::WorkerConfig cfg;
  cfg.fleet = fleet_config_from_flags(flags);
  const auto [shard_index, shard_count] = flags.index_count("shard", {0, 1});
  cfg.shard = fleet::ShardSpec{static_cast<std::uint32_t>(shard_index),
                               static_cast<std::uint32_t>(shard_count)};
  cfg.out_path = flags.str("out", "shard.bin");
  cfg.attempt = static_cast<std::uint32_t>(flags.num("attempt", 0));
  cfg.fault_rate = flags.real("fault-rate", 0.0);
  return cluster::run_worker(cfg, std::cout);
}

int cmd_cluster(const Flags& flags) {
  cluster::ClusterConfig cfg;
  cfg.fleet = fleet_config_from_flags(flags);
  cfg.workers = static_cast<int>(flags.num("workers", 2));
  cfg.out_path = flags.str("out", "dataset.bin");
  cfg.shard_dir = flags.str("shard-dir", "");
  cfg.keep_shards = flags.num("keep-shards", 0) != 0;
  cfg.fault_rate = flags.real("fault-rate", 0.0);
  cfg.stall_timeout_ms = static_cast<int>(flags.num("stall-ms", 30000));
  cfg.max_parallel = static_cast<int>(flags.num("max-parallel", 0));
  cfg.retry.max_attempts = static_cast<int>(flags.num("retry-max", 5));
  cfg.retry.base_delay_ms = static_cast<int>(flags.num("retry-base-ms", 200));

  std::cout << "generating " << 2 * cfg.fleet.racks_per_region << " racks x "
            << cfg.fleet.hours << " hours on " << cfg.workers
            << " worker process(es)";
  if (cfg.fault_rate > 0.0) {
    std::cout << " (fault injection p=" << cfg.fault_rate << ")";
  }
  std::cout << "...\n";
  cluster::Coordinator coordinator(cfg);
  std::string err;
  const bool ok = coordinator.run(
      [](double p) {
        std::cout << "  " << static_cast<int>(100 * p) << "%\r" << std::flush;
      },
      &std::cerr, &err);
  if (!ok) {
    std::cerr << "error: " << err << "\n";
    return 1;
  }
  const auto& stats = coordinator.stats();
  std::cout << "\nwrote " << cfg.out_path << ": " << stats.rack_runs
            << " rack runs, " << stats.server_runs << " server runs, "
            << stats.bursts << " bursts (" << stats.shards
            << " worker shards)\n";
  return 0;
}

int cmd_sweep(const Flags& flags) {
  cluster::SweepConfig cfg;
  cfg.base = fleet_config_from_flags(flags);
  const std::string policies = flags.str("policies", "dt,static,delay");
  cfg.policies.clear();
  std::size_t pos = 0;
  while (pos <= policies.size()) {
    const std::size_t comma = policies.find(',', pos);
    const std::string tok = policies.substr(
        pos, comma == std::string::npos ? comma : comma - pos);
    net::BufferPolicy p;
    if (!net::parse_policy(tok, &p)) {
      die_usage("unknown policy '" + tok +
                "' in --policies (dt|static|complete|burst-absorb|delay)");
    }
    cfg.policies.push_back(p);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (flags.has("alphas")) {
    cfg.alphas = parse_double_list(flags.str("alphas", ""), "alphas");
  }
  if (flags.has("boosts")) {
    cfg.boosts = parse_double_list(flags.str("boosts", ""), "boosts");
  }
  if (flags.has("target-delays")) {
    cfg.target_delays_ms =
        parse_double_list(flags.str("target-delays", ""), "target-delays");
  }
  cfg.out_dir = flags.str("out-dir", "sweep-out");
  cfg.keep_datasets = flags.num("keep-datasets", 0) != 0;

  const auto cells = cluster::expand_grid(cfg);
  std::cout << "sweeping " << cells.size() << " policy cells x "
            << 2 * cfg.base.racks_per_region << " racks x " << cfg.base.hours
            << " hours serially...\n";
  cluster::SweepResult result;
  std::string err;
  if (!cluster::run_sweep(cfg, &result, &std::cout, &err)) {
    std::cerr << "error: " << err << "\n";
    return 1;
  }

  // Headline comparison: loss and burst absorption per policy cell.
  util::Table summary({"cell", "bursts", "% contended", "% lossy",
                       "% absorbed", "loss (KB/GB)", "ECN (MB/GB)"});
  for (const auto& c : result.cells) {
    summary.row()
        .cell(c.name)
        .cell(c.bursts)
        .cell(c.pct_contended(), 1)
        .cell(c.pct_lossy(), 2)
        .cell(c.pct_absorbed(), 2)
        .cell(c.loss_kb_per_gb, 2)
        .cell(c.ecn_mb_per_gb, 2);
  }
  std::cout << "\n";
  summary.print(std::cout);

  // Contention CDF: one column per cell, one row per percentile.
  std::vector<std::string> cdf_headers = {"percentile"};
  for (const auto& c : result.cells) cdf_headers.push_back(c.name);
  util::Table cdf(cdf_headers);
  for (std::size_t i = 0;
       i < sizeof(cluster::kSweepPercentiles) / sizeof(int); ++i) {
    // Built with += rather than "p" + ...: GCC 12's -Wrestrict false
    // positive (PR 105329) fires on the operator+ form under -O2.
    std::string label = "p";
    label += std::to_string(cluster::kSweepPercentiles[i]);
    auto& row = cdf.row().cell(label);
    for (const auto& c : result.cells) row.cell(c.contention_pct[i], 2);
  }
  std::cout << "\nrack avg contention CDF (usable busy racks):\n";
  cdf.print(std::cout);

  const std::string summary_csv = cfg.out_dir + "/sweep_summary.csv";
  const std::string cdf_csv = cfg.out_dir + "/sweep_contention_cdf.csv";
  if (!summary.write_csv_file(summary_csv) ||
      !cdf.write_csv_file(cdf_csv)) {
    std::cerr << "error: cannot write CSVs under " << cfg.out_dir << "\n";
    return 1;
  }
  std::cout << "\nwrote " << summary_csv << " and " << cdf_csv << "\n";
  return 0;
}

int cmd_report(const Flags& flags) {
  const std::string path = flags.str("dataset", "dataset.bin");
  fleet::DatasetView ds;
  if (auto st = fleet::Dataset::open_mapped(path, &ds); !st) {
    std::cerr << "error: " << st.to_string() << "\n";
    return 1;
  }
  if (!ds.shard().full_range()) {
    std::cout << "note: " << path << " is shard " << ds.shard().index << "/"
              << ds.shard().count << " (windows [" << ds.window_begin()
              << ", " << ds.window_end()
              << ")); rack classes are computed at merge, "
              << "so class rows below reflect partial data\n";
  }
  const auto classes = fleet::build_class_map(ds);
  const auto summary = fleet::table2_summary(ds, classes);
  util::Table table({"class", "bursts", "% contended", "% lossy"});
  for (int c = 0; c < analysis::kNumRackClasses; ++c) {
    const auto& s = summary[static_cast<std::size_t>(c)];
    table.row()
        .cell(std::string(analysis::rack_class_name(
            static_cast<analysis::RackClass>(c))))
        .cell(s.bursts)
        .cell(s.pct_contended(), 1)
        .cell(s.pct_lossy(), 2);
  }
  table.print(std::cout);
  for (const auto region :
       {workload::RegionId::kRegA, workload::RegionId::kRegB}) {
    auto busy = fleet::busy_hour_contention(ds, region, workload::kBusyHour);
    if (busy.empty()) continue;
    const auto box = util::box_summary(busy);
    std::cout << region_name(region) << " busy-hour avg contention: median "
              << util::format_double(box.median, 2) << ", p90 "
              << util::format_double(box.p90, 2) << ", max "
              << util::format_double(box.max, 2) << "\n";
  }
  return 0;
}

/// Parses "--racks LO-HI" (or a single "N") into an inclusive rack-id
/// range; throws UsageError on malformed input.
std::pair<std::uint32_t, std::uint32_t> parse_rack_range(
    const std::string& text) {
  const auto parse_u32 = [&](const std::string& tok) {
    std::size_t used = 0;
    unsigned long v = 0;
    try {
      v = std::stoul(tok, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != tok.size() || tok.empty()) {
      throw util::UsageError("bad --racks range '" + text +
                             "' (expected LO-HI or a single rack id)");
    }
    return static_cast<std::uint32_t>(v);
  };
  const std::size_t dash = text.find('-');
  if (dash == std::string::npos) {
    const std::uint32_t v = parse_u32(text);
    return {v, v};
  }
  const auto lo = parse_u32(text.substr(0, dash));
  const auto hi = parse_u32(text.substr(dash + 1));
  if (lo > hi) {
    throw util::UsageError("bad --racks range '" + text + "' (LO > HI)");
  }
  return {lo, hi};
}

int cmd_query(const Flags& flags) {
  const std::string path = flags.str("dataset", "dataset.bin");
  fleet::DatasetView view;
  if (auto st = fleet::Dataset::open_mapped(path, &view); !st) {
    std::cerr << "error: " << st.to_string() << "\n";
    return 1;
  }

  // Window filters.  -1 (or the full id range) means "no filter".
  int region = -1;
  if (flags.has("region")) {
    const std::string r = flags.str("region", "");
    if (r == "A" || r == "a") {
      region = 0;
    } else if (r == "B" || r == "b") {
      region = 1;
    } else {
      die_usage("unknown --region '" + r + "' (A|B)");
    }
  }
  const int hour = flags.has("hour")
                       ? static_cast<int>(flags.num("hour", 0))
                       : -1;
  std::uint32_t rack_lo = 0, rack_hi = ~std::uint32_t{0};
  if (flags.has("racks")) {
    std::tie(rack_lo, rack_hi) = parse_rack_range(flags.str("racks", ""));
  }
  int want_class = -1;
  if (flags.has("class")) {
    const std::string c = flags.str("class", "");
    if (c == "typical") {
      want_class = static_cast<int>(analysis::RackClass::kRegATypical);
    } else if (c == "high") {
      want_class = static_cast<int>(analysis::RackClass::kRegAHigh);
    } else if (c == "regb") {
      want_class = static_cast<int>(analysis::RackClass::kRegB);
    } else {
      die_usage("unknown --class '" + c + "' (typical|high|regb)");
    }
  }
  const std::string what = flags.str("what", "summary");
  if (what != "summary" && what != "windows" && what != "bursts") {
    die_usage("unknown --what '" + what + "' (summary|windows|bursts)");
  }
  const long limit = static_cast<long>(flags.num("limit", 20));

  const auto matches = [&](const fleet::WindowView& w) {
    if (region >= 0 && w.key.region != region) return false;
    if (hour >= 0 && w.key.hour != hour) return false;
    if (w.key.rack_id < rack_lo || w.key.rack_id > rack_hi) return false;
    if (want_class >= 0 &&
        static_cast<int>(view.class_of(w.key.rack_id)) != want_class) {
      return false;
    }
    return true;
  };
  const auto class_name = [&](std::uint32_t rack_id) {
    return std::string(analysis::rack_class_name(view.class_of(rack_id)));
  };

  long matched = 0, rows = 0, truncated = 0;
  if (what == "windows") {
    util::Table table({"window", "region", "hour", "rack", "class", "runs",
                       "server runs", "bursts", "avg contention"});
    for (std::size_t i = 0; i < view.num_windows(); ++i) {
      const fleet::WindowView w = view.window(i);
      if (!matches(w)) continue;
      ++matched;
      if (limit > 0 && rows >= limit) {
        ++truncated;
        continue;
      }
      ++rows;
      table.row()
          .cell(static_cast<long long>(w.index))
          .cell(w.key.region == 0 ? "RegA" : "RegB")
          .cell(static_cast<long long>(w.key.hour))
          .cell(static_cast<long long>(w.key.rack_id))
          .cell(class_name(w.key.rack_id))
          .cell(static_cast<long long>(w.rack_run.size()))
          .cell(static_cast<long long>(w.server_runs.size()))
          .cell(static_cast<long long>(w.bursts.size()))
          .cell(w.has_run ? util::format_double(w.rack_run.avg_contention[0],
                                                2)
                          : std::string("-"));
    }
    table.print(std::cout);
  } else if (what == "bursts") {
    util::Table table({"window", "rack", "class", "hour", "len (ms)",
                       "volume (B)", "max contention", "avg conns",
                       "contended", "lossy"});
    for (std::size_t i = 0; i < view.num_windows(); ++i) {
      const fleet::WindowView w = view.window(i);
      if (!matches(w)) continue;
      ++matched;
      for (std::size_t b = 0; b < w.bursts.size(); ++b) {
        if (limit > 0 && rows >= limit) {
          ++truncated;
          continue;
        }
        ++rows;
        table.row()
            .cell(static_cast<long long>(w.index))
            .cell(static_cast<long long>(w.bursts.rack_id[b]))
            .cell(class_name(w.bursts.rack_id[b]))
            .cell(static_cast<long long>(w.bursts.hour[b]))
            .cell(static_cast<long long>(w.bursts.len_ms[b]))
            .cell(w.bursts.volume_bytes[b], 0)
            .cell(static_cast<long long>(w.bursts.max_contention[b]))
            .cell(w.bursts.avg_conns[b], 1)
            .cell(w.bursts.contended[b] ? "yes" : "no")
            .cell(w.bursts.lossy[b] ? "yes" : "no");
      }
    }
    table.print(std::cout);
  } else {
    long runs = 0, server_runs = 0, bursts = 0, contended = 0, lossy = 0;
    std::vector<double> contentions;
    for (std::size_t i = 0; i < view.num_windows(); ++i) {
      const fleet::WindowView w = view.window(i);
      if (!matches(w)) continue;
      ++matched;
      runs += static_cast<long>(w.rack_run.size());
      server_runs += static_cast<long>(w.server_runs.size());
      bursts += static_cast<long>(w.bursts.size());
      for (auto c : w.bursts.contended) contended += c ? 1 : 0;
      for (auto l : w.bursts.lossy) lossy += l ? 1 : 0;
      if (w.has_run) contentions.push_back(w.rack_run.avg_contention[0]);
    }
    const double contention_sum = util::canonical_sum(contentions);
    util::Table table({"metric", "value"});
    table.add_row({"windows selected", std::to_string(matched)});
    table.add_row({"rack runs", std::to_string(runs)});
    table.add_row({"server runs", std::to_string(server_runs)});
    table.add_row({"bursts", std::to_string(bursts)});
    table.add_row(
        {"% contended",
         util::format_double(
             100.0 * static_cast<double>(contended) /
                 static_cast<double>(std::max(bursts, 1L)),
             1)});
    table.add_row(
        {"% lossy", util::format_double(
                        100.0 * static_cast<double>(lossy) /
                            static_cast<double>(std::max(bursts, 1L)),
                        2)});
    table.add_row(
        {"mean window avg contention",
         util::format_double(
             contention_sum / static_cast<double>(std::max(runs, 1L)), 2)});
    table.print(std::cout);
  }
  if (truncated > 0) {
    std::cout << "(+" << truncated << " more row(s); raise --limit or pass "
              << "--limit 0 for all)\n";
  }
  return 0;
}

int cmd_version(const Flags&) {
  util::Table table({"field", "value"});
  table.add_row({"wire-version", std::to_string(fleet::wire::kVersion)});
  table.add_row({"model-version", std::to_string(fleet::model_version())});
  table.add_row({"compiler", __VERSION__});
#if defined(__OPTIMIZE__)
  table.add_row({"optimized", "yes"});
#else
  table.add_row({"optimized", "no"});
#endif
#if defined(__SANITIZE_ADDRESS__)
  table.add_row({"sanitizer", "address"});
#elif defined(__SANITIZE_THREAD__)
  table.add_row({"sanitizer", "thread"});
#else
  table.add_row({"sanitizer", "none"});
#endif
  std::string avail;
  for (util::simd::IsaPath p : util::simd::available_paths()) {
    if (!avail.empty()) avail += ' ';
    avail += util::simd::path_name(p);
  }
  table.add_row({"simd-available", avail});
  table.add_row(
      {"simd-detected", util::simd::path_name(util::simd::detected_path())});
  table.add_row(
      {"simd-active", util::simd::path_name(util::simd::active_path())});
  const std::string env = util::simd::env_request();
  table.add_row({"simd-env", env.empty() ? "(unset)" : env});
  table.add_row({"simd-env-honored", util::simd::env_honored() ? "yes" : "no"});
  table.print(std::cout);
  return 0;
}

void usage() {
  std::cout << "usage: msampctl "
               "<simulate-rack|analyze|fleet|merge|cluster|worker|sweep|"
               "report|query|version> [--flag value ...]\n"
               "see the header of tools/msampctl.cc for full flag lists\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return cluster::kUsageExitCode;
  }
  const std::string cmd = argv[1];
  // Per-command flag vocabulary: anything else is a usage error.  Only
  // `merge` takes positional arguments (its shard files).
  const std::map<std::string, std::vector<std::string>> known_flags = {
      {"simulate-rack",
       {"servers", "task", "intensity", "samples", "hour", "seed", "out"}},
      {"analyze", {"trace", "gbps"}},
      {"fleet", with_policy_flags({"racks", "hours", "samples", "seed",
                                   "threads", "shard", "out"})},
      {"merge", {"out"}},
      {"cluster", with_policy_flags(
                      {"racks", "hours", "samples", "seed", "threads",
                       "workers", "out", "shard-dir", "keep-shards",
                       "fault-rate", "stall-ms", "max-parallel", "retry-max",
                       "retry-base-ms"})},
      {"worker", with_policy_flags({"racks", "hours", "samples", "seed",
                                    "threads", "shard", "out", "attempt",
                                    "fault-rate"})},
      {"sweep", with_policy_flags({"racks", "hours", "samples", "seed",
                                   "threads", "policies", "alphas", "boosts",
                                   "target-delays", "out-dir",
                                   "keep-datasets"})},
      {"report", {"dataset"}},
      {"query", {"dataset", "region", "hour", "racks", "class", "what",
                 "limit"}},
      {"version", {}},
  };
  const auto it = known_flags.find(cmd);
  if (it == known_flags.end()) {
    usage();
    return cluster::kUsageExitCode;
  }
  try {
    const Flags flags(argc, argv, 2, it->second,
                      /*allow_positionals=*/cmd == "merge");
    if (cmd == "simulate-rack") return cmd_simulate_rack(flags);
    if (cmd == "analyze") return cmd_analyze(flags);
    if (cmd == "fleet") return cmd_fleet(flags);
    if (cmd == "merge") return cmd_merge(flags);
    if (cmd == "cluster") return cmd_cluster(flags);
    if (cmd == "worker") return cmd_worker(flags);
    if (cmd == "sweep") return cmd_sweep(flags);
    if (cmd == "query") return cmd_query(flags);
    if (cmd == "version") return cmd_version(flags);
    return cmd_report(flags);
  } catch (const util::UsageError& e) {
    die_usage(e.what());
  }
}
