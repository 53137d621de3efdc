#include "analysis/trace_io.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

namespace msamp::analysis {
namespace {

constexpr const char* kHeaderPrefix = "# msamp-sync-trace v1";
constexpr const char* kColumns =
    "server,sample,in_bytes,in_retx_bytes,out_bytes,out_retx_bytes,"
    "in_ecn_bytes,connections";

bool is_zero(const core::BucketSample& b) {
  return b.in_bytes == 0 && b.in_retx_bytes == 0 && b.out_bytes == 0 &&
         b.out_retx_bytes == 0 && b.in_ecn_bytes == 0 && b.connections == 0.0;
}

/// Parses the signed integer at `pos`, which one `stop` character must
/// end, and steps past it: a row field ends at its comma (so a second
/// comma fails the next field), a space-separated header value at a space
/// or the end of the line.
bool int_field(const std::string& line, std::size_t& pos, char stop,
               std::int64_t* out) {
  const char* end = line.data() + line.size();
  const auto [ptr, ec] = std::from_chars(line.data() + pos, end, *out);
  if (ec != std::errc{}) return false;
  pos = static_cast<std::size_t>(ptr - line.data());
  if (pos == line.size()) return stop == ' ';
  return line[pos++] == stop;
}

}  // namespace

void write_sync_trace(const core::SyncRun& run, std::ostream& os) {
  os << kHeaderPrefix << " interval_ns=" << run.interval
     << " grid_start_ns=" << run.grid_start << "\n"
     << kColumns << "\n";
  char buf[192];
  for (std::size_t s = 0; s < run.num_servers(); ++s) {
    // Every server writes its last sample even when zero: the anchor rows
    // pin both the server set and the series length on import.
    for (std::size_t k = 0; k < run.series[s].size(); ++k) {
      const auto& b = run.series[s][k];
      const bool last = k + 1 == run.series[s].size();
      if (is_zero(b) && !last) continue;
      std::snprintf(buf, sizeof(buf),
                    "%zu,%zu,%lld,%lld,%lld,%lld,%lld,%.3f\n", s, k,
                    static_cast<long long>(b.in_bytes),
                    static_cast<long long>(b.in_retx_bytes),
                    static_cast<long long>(b.out_bytes),
                    static_cast<long long>(b.out_retx_bytes),
                    static_cast<long long>(b.in_ecn_bytes), b.connections);
      os << buf;
    }
  }
}

bool write_sync_trace_file(const core::SyncRun& run,
                           const std::string& path) {
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream out(path);
  if (!out) return false;
  write_sync_trace(run, out);
  return static_cast<bool>(out);
}

std::optional<core::SyncRun> read_sync_trace(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) return std::nullopt;
  if (line.rfind(kHeaderPrefix, 0) != 0) return std::nullopt;

  core::SyncRun run;
  {
    // Parse the two header attributes.
    const auto ipos = line.find("interval_ns=");
    const auto gpos = line.find("grid_start_ns=");
    if (ipos == std::string::npos || gpos == std::string::npos) {
      return std::nullopt;
    }
    std::size_t p = ipos + 12;
    std::int64_t interval = 0, grid_start = 0;
    if (!int_field(line, p, ' ', &interval) || interval <= 0) {
      return std::nullopt;
    }
    p = gpos + 14;
    if (!int_field(line, p, ' ', &grid_start)) return std::nullopt;
    run.interval = interval;
    run.grid_start = grid_start;
  }
  if (!std::getline(is, line) || line != kColumns) return std::nullopt;

  // First pass: collect rows, track geometry.
  struct Row {
    std::size_t server;
    std::size_t sample;
    core::BucketSample value;
  };
  std::vector<Row> rows;
  std::size_t num_samples = 0;
  std::map<std::size_t, bool> servers;  // ordered, deduped
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    Row row;
    std::size_t pos = 0;
    std::int64_t server = 0, sample = 0;
    if (!int_field(line, pos, ',', &server) || server < 0) return std::nullopt;
    if (!int_field(line, pos, ',', &sample) || sample < 0) return std::nullopt;
    for (std::int64_t* bytes :
         {&row.value.in_bytes, &row.value.in_retx_bytes, &row.value.out_bytes,
          &row.value.out_retx_bytes, &row.value.in_ecn_bytes}) {
      if (!int_field(line, pos, ',', bytes) || *bytes < 0 ||
          *bytes > kMaxTraceBytes) {
        return std::nullopt;
      }
    }
    // Connections: fractional, and the last field, so it must end the line.
    const char* end = line.data() + line.size();
    const auto [ptr, ec] =
        std::from_chars(line.data() + pos, end, row.value.connections);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
    // from_chars reads "nan" and "inf", and NaN passes a `< 0` test.
    if (!std::isfinite(row.value.connections) || row.value.connections < 0) {
      return std::nullopt;
    }
    row.server = static_cast<std::size_t>(server);
    row.sample = static_cast<std::size_t>(sample);
    if (row.server > 100000 || row.sample > 10000000) return std::nullopt;
    servers[row.server] = true;
    num_samples = std::max(num_samples, row.sample + 1);
    // Dense ids make the series (last id + 1) x samples cells: reject a
    // trace over the budget before anything of that size is allocated.
    if ((servers.rbegin()->first + 1) * num_samples > kMaxTraceCells) {
      return std::nullopt;
    }
    rows.push_back(row);
  }
  if (rows.empty()) return run;  // empty trace: zero servers

  // Dense server ids expected (0..N-1); reject gaps to catch mangled files.
  std::size_t expected = 0;
  for (const auto& [id, _] : servers) {
    if (id != expected++) return std::nullopt;
  }
  run.series.assign(servers.size(),
                    std::vector<core::BucketSample>(num_samples));
  run.hosts.resize(servers.size());
  for (std::size_t s = 0; s < servers.size(); ++s) {
    run.hosts[s] = static_cast<net::HostId>(s);
  }
  for (const auto& row : rows) {
    run.series[row.server][row.sample] = row.value;
  }
  return run;
}

std::optional<core::SyncRun> read_sync_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return read_sync_trace(in);
}

}  // namespace msamp::analysis
