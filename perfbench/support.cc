#include "support.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "cluster/retry.h"
#include "cluster/worker.h"
#include "json.h"
#include "proc.h"

namespace msamp::perfbench {
namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t next = text.find(sep, pos);
    std::string tok = text.substr(pos, next == std::string::npos ? next : next - pos);
    if (!tok.empty()) out.push_back(std::move(tok));
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  return out;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Per-shard failure counts and killed windows of one data seed.
struct FaultPattern {
  std::vector<int> failures;
  std::vector<std::uint64_t> killed_windows;
  bool finishes = true;  ///< every shard succeeds within the retry budget
};

FaultPattern fault_pattern(const fleet::FleetConfig& config, int workers,
                           double fault_rate) {
  const cluster::RetryPolicy retry;
  FaultPattern p;
  for (int s = 0; s < workers; ++s) {
    cluster::WorkerConfig w;
    w.fleet = config;
    w.shard = {static_cast<std::uint32_t>(s),
               static_cast<std::uint32_t>(workers)};
    w.fault_rate = fault_rate;
    int failures = 0;
    std::uint64_t killed = 0;
    for (;; ++failures) {
      w.attempt = static_cast<std::uint32_t>(failures);
      const auto kill_at = cluster::fault_plan(w);
      if (!kill_at.has_value()) break;
      killed += *kill_at;
      if (!retry.can_retry(failures + 1)) {
        p.finishes = false;
        break;
      }
    }
    p.failures.push_back(failures);
    p.killed_windows.push_back(killed);
  }
  return p;
}

}  // namespace

Scale Scale::smoke() {
  Scale s;
  s.racks = 2;
  s.hours = 2;
  s.fault_band = false;
  s.sweep_racks = 1;
  s.packet_windows = 1;
  s.packet_servers = 4;
  s.packet_samples = 50;
  s.figure_passes = 1;
  s.trace_racks = 1;
  s.bench_day = false;
  return s;
}

Programs programs(const char* argv0) {
  Programs p;
  p.msampctl = MSAMP_BENCH_MSAMPCTL;
  std::error_code ec;
  const fs::path exe = fs::read_symlink("/proc/self/exe", ec);
  p.self = ec ? fs::absolute(argv0).string() : exe.string();
  p.figure_dir = MSAMP_BENCH_FIGURE_DIR;
  p.figures = split(MSAMP_BENCH_FIGURES, ',');
  return p;
}

std::string Stamp::get(const std::string& key) const {
  const auto it = fields.find(key);
  return it == fields.end() ? "" : it->second;
}

std::string Stamp::json(int lanes) const {
  std::string out = "{\"nproc\": " + std::to_string(nproc) +
                    ", \"lanes\": " + std::to_string(lanes);
  for (const auto& [k, v] : fields) {
    out += ", " + json::quote(k) + ": " + json::quote(v);
  }
  return out + "}";
}

Stamp read_stamp(const Programs& programs, const fs::path& scratch) {
  Stamp stamp;
  cpu_set_t set;
  CPU_ZERO(&set);
  stamp.nproc = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  Command cmd;
  cmd.argv = {programs.msampctl, "version"};
  cmd.stdout_path = scratch / "version.txt";
  if (!run(cmd).ok()) return stamp;
  std::istringstream in(read_file(cmd.stdout_path));
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string key, word, value;
    words >> key;
    while (words >> word) value += (value.empty() ? "" : " ") + word;
    if (key.empty() || key == "field" || key[0] == '-') continue;
    stamp.fields[key] = value;
  }
  return stamp;
}

namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv(std::uint64_t h, const char* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ static_cast<unsigned char>(data[i])) * 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t h) {
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return out;
}

}  // namespace

std::string file_digest(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::uint64_t h = kFnvBasis;
  std::vector<char> buf(1 << 16);
  while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
         in.gcount() > 0) {
    h = fnv(h, buf.data(), static_cast<std::size_t>(in.gcount()));
  }
  return hex(h);
}

std::string text_digest(const std::string& text) {
  return hex(fnv(kFnvBasis, text.data(), text.size()));
}

fleet::FleetConfig day_config(const Scale& scale, std::uint64_t data_seed,
                              int racks) {
  fleet::FleetConfig cfg;
  cfg.seed = data_seed;
  cfg.racks_per_region = racks;
  cfg.hours = scale.hours;
  cfg.samples_per_run = scale.samples;
  cfg.threads = 1;
  return cfg;
}

std::vector<std::string> msampctl_argv(const Programs& programs,
                                       const std::string& verb,
                                       const fleet::FleetConfig& config) {
  return {programs.msampctl, verb,
          "--racks", std::to_string(config.racks_per_region),
          "--hours", std::to_string(config.hours),
          "--samples", std::to_string(config.samples_per_run),
          "--seed", std::to_string(config.seed)};
}

std::vector<std::string> fleet_argv(const Programs& programs,
                                    const fleet::FleetConfig& config,
                                    int threads, const std::string& out) {
  auto argv = msampctl_argv(programs, "fleet", config);
  argv.insert(argv.end(), {"--threads", std::to_string(threads), "--out", out});
  return argv;
}

std::vector<std::string> cluster_argv(const Programs& programs,
                                      const fleet::FleetConfig& config,
                                      int workers, double fault_rate,
                                      const std::string& out) {
  auto argv = msampctl_argv(programs, "cluster", config);
  std::ostringstream rate;
  rate << fault_rate;
  argv.insert(argv.end(), {"--threads", "1", "--workers", std::to_string(workers),
                           "--fault-rate", rate.str(), "--out", out});
  return argv;
}

std::uint64_t derive_data_seed(std::uint64_t seed, const Scale& scale) {
  // Seed 42's load at the full scale: two of four shards killed twice
  // each, the worst shard losing 0.68 of its windows to kills and the
  // day 1.10 shards' worth.  The bands hold the critical path and the
  // total work within about 2.5% across seeds.
  constexpr double kWorstLo = 0.64, kWorstHi = 0.72;
  constexpr double kTotalLo = 1.0, kTotalHi = 1.2;
  constexpr std::uint64_t kMaxCandidates = 1u << 22;
  fleet::FleetConfig cfg = day_config(scale, seed, scale.racks);
  const double shard_windows =
      2.0 * scale.racks * scale.hours / static_cast<double>(scale.lanes);
  for (std::uint64_t k = 0; k < kMaxCandidates; ++k) {
    // Seeds stay below 2^31 so every msampctl flag parser takes them.
    cfg.seed = k == 0 ? seed : mix_seed(seed, k) & 0x7fffffffULL;
    const FaultPattern p = fault_pattern(cfg, scale.lanes, scale.fault_rate);
    if (!p.finishes) continue;
    std::vector<int> sorted = p.failures;
    std::sort(sorted.begin(), sorted.end());
    std::vector<int> want(static_cast<std::size_t>(scale.lanes), 0);
    want[want.size() - 1] = want[want.size() - 2] = 2;
    if (sorted != want) continue;
    if (scale.fault_band) {
      std::uint64_t killed = 0;
      for (const std::uint64_t w : p.killed_windows) killed += w;
      const double worst = static_cast<double>(*std::max_element(
                               p.killed_windows.begin(), p.killed_windows.end())) /
                           shard_windows;
      const double total = static_cast<double>(killed) / shard_windows;
      if (worst < kWorstLo || worst > kWorstHi || total < kTotalLo ||
          total > kTotalHi) {
        continue;
      }
    }
    return cfg.seed;
  }
  return seed;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t i) {
  return splitmix64(seed ^ splitmix64(i));
}

FaultLoad predict_fault_load(const fleet::FleetConfig& config, int workers,
                             double fault_rate) {
  const cluster::RetryPolicy retry;
  const FaultPattern p = fault_pattern(config, workers, fault_rate);
  FaultLoad load;
  for (const int f : p.failures) {
    load.attempts += f + 1;
    load.failed += f;
    for (int a = 1; a <= f; ++a) load.backoff_ms += retry.delay_ms(a);
  }
  return load;
}

FaultLoad parse_coordinator_log(const std::string& log) {
  FaultLoad load;
  std::istringstream in(log);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(" started (pid ") != std::string::npos) ++load.attempts;
    if (line.find(" failed (") == std::string::npos) continue;
    ++load.failed;
    const std::size_t at = line.rfind("retrying in ");
    if (at != std::string::npos) {
      load.backoff_ms += std::atoi(line.c_str() + at + 12);
    }
  }
  return load;
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.min = v.front();
  s.max = v.back();
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  // statistics.quantiles(data, n=4, method='exclusive').
  const auto quantile = [&](long i) {
    const long m = static_cast<long>(n) + 1;
    long j = i * m / 4;
    j = std::clamp(j, 1L, static_cast<long>(n) - 1);
    const long delta = i * m - j * 4;
    return (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  s.q1 = quantile(1);
  s.q3 = quantile(3);
  return s;
}

std::string format_g(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

bool write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out.flush());
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace msamp::perfbench
