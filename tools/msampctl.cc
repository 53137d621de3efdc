// msampctl — command-line front end to the millisampler-repro library.
//
// Every flag is a checked read: a value outside its range below exits 2
// with an error naming the flag.  A command's FleetConfig must then pass
// FleetConfig::validate() (exit 2 naming the field; every number finite).
//
//   msampctl simulate-rack [--servers N] [--task KIND] [--intensity X]
//                          [--samples N] [--hour H] [--seed S]
//                          [--out trace.csv]
//       Simulate one rack observation window and export the
//       SyncMillisampler trace (msamp-sync-trace CSV).  --servers and
//       --samples in [0, 65535], --hour in [0, 255], --intensity finite
//       and >= 0, --seed >= 0; --task is one of ml_training, web, cache
//       (the default), storage, batch, quiet, ml_inference.
//
//   msampctl analyze --trace trace.csv [--gbps G]
//       Run one burst/contention/loss/stall analysis on a trace file:
//       every row uses line rate --gbps (finite and > 0, default 12.5) and
//       the trace's own interval; burst length is in ms.
//
//   msampctl fleet [--racks N] [--hours H] [--samples N] [--seed S]
//                  [--threads T] [--shard I/N] [--out dataset.bin]
//                  [policy flags]
//       Generate a two-region measurement day and stream the distilled
//       dataset to --out through the disk-backed spill sink (peak RSS is
//       a few spill chunks plus the day's small tables; an interrupted
//       run can leave `<out>.spill-*` temps, which the next run removes).
//       --racks, --seed and --threads must be >= 0, --hours in [0, 256]
//       and --samples in [0, 65535].
//       The buffer-sharing policy flags — shared with `cluster`,
//       `worker`, and `sweep` — select the MMU discipline (see
//       docs/POLICIES.md): --policy dt|static|complete|burst-absorb|delay,
//       --alpha A (DT alpha), --boost B (burst-absorb alpha multiplier),
//       --target-delay D (delay-driven target, ms); A, B and D finite and
//       >= 0.
//       An explicit --threads N wins; --threads 0 (the default)
//       defers to the MSAMP_THREADS environment variable, else uses every
//       hardware core.  --shard I/N (0 <= I < N <= 4294967295) generates
//       only shard I of an N-way split of the day (a first-class partial
//       dataset file); run the N shards in as many processes or machines
//       as you like and fold them back with `msampctl merge`.  Any thread
//       count and any shard split produce byte-identical output for a
//       given --seed.
//
//   msampctl merge shard0.bin shard1.bin ... [--out dataset.bin]
//       Validate (fingerprint, config bytes, shard coverage, per-window
//       record counts) and merge shard files into the full dataset —
//       byte-identical to a single-process `msampctl fleet` run at the
//       same seed and scale.  Streams section-by-section, so merging
//       never holds the day's records in memory.
//
//   msampctl cluster [--workers N] [fleet flags] [--out dataset.bin]
//                    [--shard-dir D] [--keep-shards 0|1] [--max-parallel M]
//                    [--stall-ms T] [--retry-max A] [--retry-base-ms B]
//                    [--fault-rate p]
//       Fault-tolerant multi-process generation: N worker processes (one
//       per shard, re-exec'd `msampctl worker`), crash/stall detection,
//       capped-backoff retries, then a streaming merge — byte-identical
//       to `msampctl fleet` at the same seed and scale, even under
//       injected worker kills (--fault-rate, test-only).  --workers in
//       [1, 1024], --max-parallel in [0, 1024] (0 = all), --stall-ms and
//       --retry-max >= 1, --retry-base-ms >= 0, --fault-rate in [0, 1].
//       docs/CLUSTER.md has the architecture and the worker heartbeat
//       protocol.
//
//   msampctl worker --shard I/N --out shard.bin [fleet flags]
//                   [--attempt A] [--fault-rate p]
//       The cluster worker role (normally spawned by `msampctl cluster`,
//       but usable standalone): generates one shard through the same
//       spill sink as `fleet` and emits `msamp-hb` heartbeat lines on
//       stdout.  --attempt in [0, 4294967295], --fault-rate in [0, 1].
//
//   msampctl sweep [--policies dt,static,delay] [--alphas 0.25,1,4]
//                  [--boosts 4] [--target-delays 0.5] [--out-dir D]
//                  [--keep-datasets 0|1] [fleet scale flags]
//       Policy lab: expand the buffer-sharing policy x parameter grid
//       into deterministic cells, generate each cell's measurement day
//       in-process through the spill sink, one cell after another, and
//       emit the comparison tables — burst absorption, contention CDF,
//       and loss per policy — plus sweep_summary.csv /
//       sweep_contention_cdf.csv under --out-dir.  List entries obey
//       --alpha's, --boost's and --target-delay's ranges.  Re-runs are
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
//       hour (in [0, 255]), rack-id range, and measured rack class, and
//       print either a per-window table (--what windows), the selected
//       windows' burst records (--what bursts; --limit rows >= 0, default
//       20, 0 = all), or an aggregate summary (--what summary, the
//       default).  Reads stream from the mapping, so querying a
//       cluster-scale day stays at a bounded RSS.
//
//   msampctl version
//       Print the build's identity: dataset wire-format version, model
//       (generator behavior) version, compiler, and whether the build is
//       optimized or sanitized.  The first thing a bug report needs; the
//       output is one `field value` table, so scripts can read single
//       fields (perfbench/msamp_bench stamps its results with them).
//
// Every command is deterministic for a given --seed.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/diagnose.h"
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
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "workload/diurnal.h"

using namespace msamp;
using util::Flags;

namespace {

constexpr long kIntMax = std::numeric_limits<int>::max();
constexpr long kLongMax = std::numeric_limits<long>::max();
constexpr long kU32Max = std::numeric_limits<std::uint32_t>::max();
constexpr double kRealMax = std::numeric_limits<double>::max();
/// --workers and --max-parallel count processes, each started at once.
constexpr long kMaxProcesses = 1024;

/// `cfg` when it passes FleetConfig::validate(), else a usage error that
/// names the field.
const fleet::FleetConfig& checked(const fleet::FleetConfig& cfg) {
  if (auto st = cfg.validate(); !st) {
    throw util::UsageError("invalid config: " + st.reason());
  }
  return cfg;
}

/// The printed names of an enum's first `count` values, in value order:
/// the options of a `Flags::choice` read.
template <typename Enum, typename Name>
std::vector<std::string_view> names_of(int count, Name name) {
  std::vector<std::string_view> names;
  for (int k = 0; k < count; ++k) names.push_back(name(static_cast<Enum>(k)));
  return names;
}

std::vector<std::string_view> policy_names() {
  return names_of<net::BufferPolicy>(net::kNumBufferPolicies,
                                     net::policy_name);
}

/// --shard I/N, with N within the u32 a shard header stores.
fleet::ShardSpec shard_flag(const Flags& flags) {
  const auto [index, count] = flags.index_count("shard", {0, 1});
  if (count > kU32Max) {
    throw util::UsageError("flag '--shard' needs N <= 4294967295, got " +
                           std::to_string(count));
  }
  return {static_cast<std::uint32_t>(index), static_cast<std::uint32_t>(count)};
}

int cmd_simulate_rack(const Flags& flags) {
  workload::RackMeta rack;
  rack.rack_id = 1;
  rack.region = workload::RegionId::kRegA;
  rack.intensity = flags.real("intensity", 1.5, 0.0, kRealMax);
  // Same u16 bound as a fleet run's servers; zero writes an empty trace.
  const auto servers =
      static_cast<std::size_t>(flags.num("servers", 92, 0, 65535));
  const auto kind = static_cast<workload::TaskKind>(flags.choice(
      "task",
      names_of<workload::TaskKind>(workload::kNumTaskKinds,
                                   workload::task_name),
      static_cast<int>(workload::TaskKind::kCache)));
  rack.server_service.assign(servers, 0);
  rack.server_kind.assign(servers, kind);

  fleet::FleetConfig cfg;
  cfg.samples_per_run =
      static_cast<int>(flags.num("samples", 1000, 0, kIntMax));
  const auto seed =
      static_cast<std::uint64_t>(flags.num("seed", 42, 0, kLongMax));
  fleet::FluidRack fluid(rack, checked(cfg),
                         static_cast<int>(flags.num("hour", 6, 0, 255)),
                         util::Rng(seed));
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
  const double gbps =
      flags.real("gbps", 12.5, std::numeric_limits<double>::min(), kRealMax);
  const auto run = analysis::read_sync_trace_file(path);
  if (!run.has_value()) {
    std::cerr << "error: cannot parse " << path << "\n";
    return 1;
  }
  const auto report = analysis::diagnose(
      *run, {.line_rate_gbps = gbps, .interval = run->interval});
  std::size_t bursts = 0, lossy = 0, bursty_servers = 0;
  std::vector<double> lengths;
  for (const auto& server : report.servers) {
    bursts += server.bursts.size();
    bursty_servers += !server.bursts.empty();
    lossy += server.lossy_bursts;
    for (const auto& b : server.bursts) {
      lengths.push_back(static_cast<double>(b.len) * sim::to_ms(run->interval));
    }
  }
  util::Table table({"metric", "value"});
  table.add_row({"servers", std::to_string(run->num_servers())});
  table.add_row({"samples", std::to_string(run->num_samples())});
  table.add_row(
      {"avg contention", util::format_double(report.summary.avg, 2)});
  table.add_row({"p90 contention", std::to_string(report.summary.p90)});
  table.add_row({"max contention", std::to_string(report.summary.max)});
  table.add_row({"bursty servers", std::to_string(bursty_servers)});
  table.add_row({"bursts", std::to_string(bursts)});
  table.add_row({"median burst length (ms)",
                 util::format_double(util::percentile(lengths, 50), 1)});
  table.add_row({"lossy bursts", std::to_string(lossy)});
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
/// workers' configs would diverge.  The counts are read as non-negative
/// ints; validate() holds each field's own range.
fleet::FleetConfig fleet_config_from_flags(const Flags& flags) {
  fleet::FleetConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(flags.num("seed", 42, 0, kLongMax));
  cfg.racks_per_region = static_cast<int>(flags.num("racks", 32, 0, kIntMax));
  cfg.hours = static_cast<int>(flags.num("hours", 24, 0, kIntMax));
  cfg.samples_per_run = static_cast<int>(flags.num("samples", 500, 0, kIntMax));
  // 0 asks for the default; the pool clamps any count to 1024.
  cfg.threads = static_cast<int>(flags.num("threads", 0, 0, kIntMax));
  cfg.buffer.policy = static_cast<net::BufferPolicy>(
      flags.choice("policy", policy_names(), 0));
  cfg.buffer.alpha = flags.real("alpha", cfg.buffer.alpha);
  cfg.buffer.burst_alpha_boost =
      flags.real("boost", cfg.buffer.burst_alpha_boost);
  cfg.buffer.delay.target_delay_ms =
      flags.real("target-delay", cfg.buffer.delay.target_delay_ms);
  return checked(cfg);
}

/// `flags` plus the ones fleet_config_from_flags reads.
std::vector<std::string> with_fleet_flags(std::vector<std::string> flags) {
  flags.insert(flags.end(), {"racks", "hours", "samples", "seed", "threads",
                             "policy", "alpha", "boost", "target-delay"});
  return flags;
}

/// The `sep`-separated entries of list flag `key` ("0.25,1,4"), each
/// read by `read(entry, key)` from a Flags that holds just that entry as
/// the flag's value, so an entry parses exactly as a single value would;
/// `fallback` when the flag is absent.
template <typename T, typename Read>
std::vector<T> list_flag(const Flags& flags, const std::string& key,
                         std::vector<T> fallback, Read read, char sep = ',') {
  if (!flags.has(key)) return fallback;
  const std::string text = flags.str(key, "");
  std::vector<T> values;
  for (std::size_t pos = 0;;) {
    const std::size_t end = text.find(sep, pos);
    std::string name = "--" + key, entry = text.substr(pos, end - pos);
    char* argv[] = {name.data(), entry.data()};
    values.push_back(read(Flags(2, argv, 0, {key}), key));
    if (end == std::string::npos) return values;
    pos = end + 1;
  }
}

int cmd_fleet(const Flags& flags) {
  const fleet::FleetConfig cfg = fleet_config_from_flags(flags);
  const fleet::ShardSpec shard = shard_flag(flags);
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
    throw util::UsageError(
        "merge needs at least one shard file "
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
  cfg.shard = shard_flag(flags);
  cfg.out_path = flags.str("out", "shard.bin");
  cfg.attempt = static_cast<std::uint32_t>(flags.num("attempt", 0, 0, kU32Max));
  cfg.fault_rate = flags.real("fault-rate", 0.0, 0.0, 1.0);
  return cluster::run_worker(cfg, std::cout);
}

int cmd_cluster(const Flags& flags) {
  cluster::ClusterConfig cfg;
  cfg.fleet = fleet_config_from_flags(flags);
  cfg.workers = static_cast<int>(flags.num("workers", 2, 1, kMaxProcesses));
  cfg.out_path = flags.str("out", "dataset.bin");
  cfg.shard_dir = flags.str("shard-dir", "");
  cfg.keep_shards = flags.num("keep-shards", 0, 0, 1) != 0;
  cfg.fault_rate = flags.real("fault-rate", 0.0, 0.0, 1.0);
  cfg.stall_timeout_ms =
      static_cast<int>(flags.num("stall-ms", 30000, 1, kIntMax));
  cfg.max_parallel =
      static_cast<int>(flags.num("max-parallel", 0, 0, kMaxProcesses));
  cfg.retry.max_attempts =
      static_cast<int>(flags.num("retry-max", 5, 1, kIntMax));
  cfg.retry.base_delay_ms =
      static_cast<int>(flags.num("retry-base-ms", 200, 0, kIntMax));

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
  cfg.policies = list_flag(
      flags, "policies", cfg.policies, [](const Flags& entry, auto& key) {
        return static_cast<net::BufferPolicy>(
            entry.choice(key, policy_names(), 0));
      });
  const auto real = [](const Flags& entry, auto& key) {
    return entry.real(key, 0.0);
  };
  cfg.alphas = list_flag(flags, "alphas", cfg.alphas, real);
  cfg.boosts = list_flag(flags, "boosts", cfg.boosts, real);
  cfg.target_delays_ms =
      list_flag(flags, "target-delays", cfg.target_delays_ms, real);
  cfg.out_dir = flags.str("out-dir", "sweep-out");
  cfg.keep_datasets = flags.num("keep-datasets", 0, 0, 1) != 0;

  const auto cells = cluster::expand_grid(cfg);
  for (const auto& cell : cells) checked(cell.config);
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

int cmd_query(const Flags& flags) {
  const std::string path = flags.str("dataset", "dataset.bin");
  // Window filters.  -1 (or the full id range) means "no filter".
  const int region_flag = flags.choice("region", {"A", "B", "a", "b"}, -1);
  const int region = region_flag < 0 ? -1 : region_flag % 2;
  const int hour = static_cast<int>(flags.num("hour", -1, 0, 255));
  const auto racks = list_flag(
      flags, "racks", std::vector<long>{0, kU32Max},
      [](const Flags& id, auto& key) { return id.num(key, 0, 0, kU32Max); },
      '-');
  if (racks.size() > 2 || racks.front() > racks.back()) {
    throw util::UsageError("bad --racks range '" + flags.str("racks", "") +
                           "' (expected LO-HI with LO <= HI, or one id)");
  }
  const auto rack_lo = static_cast<std::uint32_t>(racks.front());
  const auto rack_hi = static_cast<std::uint32_t>(racks.back());
  // In RackClass order: RegA-Typical, RegA-High, RegB.
  const int want_class = flags.choice("class", {"typical", "high", "regb"}, -1);
  enum { kSummary, kWindows, kBursts };
  const int what =
      flags.choice("what", {"summary", "windows", "bursts"}, kSummary);
  const long limit = flags.num("limit", 20, 0, kLongMax);
  fleet::DatasetView view;
  if (auto st = fleet::Dataset::open_mapped(path, &view); !st) {
    std::cerr << "error: " << st.to_string() << "\n";
    return 1;
  }

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
  if (what == kWindows) {
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
  } else if (what == kBursts) {
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
      {"fleet", with_fleet_flags({"shard", "out"})},
      {"merge", {"out"}},
      {"cluster", with_fleet_flags({"workers", "out", "shard-dir",
                                    "keep-shards", "fault-rate", "stall-ms",
                                    "max-parallel", "retry-max",
                                    "retry-base-ms"})},
      {"worker", with_fleet_flags({"shard", "out", "attempt", "fault-rate"})},
      {"sweep", with_fleet_flags({"policies", "alphas", "boosts",
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
    // Exit 2: a usage error, which the cluster coordinator does not retry.
    std::cerr << "error: " << e.what() << "\n";
    usage();
    return cluster::kUsageExitCode;
  } catch (const std::exception& e) {
    // Any other failure (std::bad_alloc included) is an ordinary error
    // line and exit 1, never an abort.
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
