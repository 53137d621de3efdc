#include "fleet/dataset_view.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <utility>

#include "fleet/wire.h"

namespace msamp::fleet {

namespace {

template <typename T>
std::span<const T> col_span(const std::uint8_t* base, std::uint64_t offset,
                            std::uint64_t count) {
  // v6 columns are kSegmentAlign-aligned relative to the file start
  // (enforced below and by the static_asserts in wire.h) and init()
  // rejects a base pointer that is not kMaxColumnAlign-aligned, so the
  // cast pointer is always properly aligned for T — a precondition the
  // SIMD kernels reading these spans rely on.
  static_assert(alignof(T) <= wire::kMaxColumnAlign,
                "column element alignment exceeds the v6 guarantee");
  static_assert(std::is_trivially_copyable_v<T>);
  return {reinterpret_cast<const T*>(base + offset),
          static_cast<std::size_t>(count)};
}

}  // namespace

RackInfo RackInfoColumns::operator[](std::size_t i) const {
  RackInfo v;
  v.rack_id = rack_id[i];
  v.region = region[i];
  v.ml_dense = ml_dense[i];
  v.distinct_tasks = distinct_tasks[i];
  v.dominant_share = dominant_share[i];
  v.intensity = intensity[i];
  v.busy_hour_avg_contention = busy_hour_avg_contention[i];
  v.rack_class = rack_class[i];
  return v;
}

RackRunRecord RackRunColumns::operator[](std::size_t i) const {
  RackRunRecord v;
  v.rack_id = rack_id[i];
  v.region = region[i];
  v.hour = hour[i];
  v.usable = usable[i];
  v.avg_contention = avg_contention[i];
  v.min_active_contention = min_active_contention[i];
  v.p90_contention = p90_contention[i];
  v.max_contention = max_contention[i];
  v.in_bytes = in_bytes[i];
  v.drop_bytes = drop_bytes[i];
  v.ecn_bytes = ecn_bytes[i];
  return v;
}

RackRunColumns RackRunColumns::slice(std::size_t off, std::size_t n) const {
  RackRunColumns s;
  s.rack_id = rack_id.subspan(off, n);
  s.region = region.subspan(off, n);
  s.hour = hour.subspan(off, n);
  s.usable = usable.subspan(off, n);
  s.avg_contention = avg_contention.subspan(off, n);
  s.min_active_contention = min_active_contention.subspan(off, n);
  s.p90_contention = p90_contention.subspan(off, n);
  s.max_contention = max_contention.subspan(off, n);
  s.in_bytes = in_bytes.subspan(off, n);
  s.drop_bytes = drop_bytes.subspan(off, n);
  s.ecn_bytes = ecn_bytes.subspan(off, n);
  return s;
}

ServerRunRecord ServerRunColumns::operator[](std::size_t i) const {
  ServerRunRecord v;
  v.rack_id = rack_id[i];
  v.region = region[i];
  v.hour = hour[i];
  v.bursty = bursty[i];
  v.avg_util = avg_util[i];
  v.util_inside = util_inside[i];
  v.util_outside = util_outside[i];
  v.bursts_per_sec = bursts_per_sec[i];
  v.conns_inside = conns_inside[i];
  v.conns_outside = conns_outside[i];
  return v;
}

ServerRunColumns ServerRunColumns::slice(std::size_t off,
                                         std::size_t n) const {
  ServerRunColumns s;
  s.rack_id = rack_id.subspan(off, n);
  s.region = region.subspan(off, n);
  s.hour = hour.subspan(off, n);
  s.bursty = bursty.subspan(off, n);
  s.avg_util = avg_util.subspan(off, n);
  s.util_inside = util_inside.subspan(off, n);
  s.util_outside = util_outside.subspan(off, n);
  s.bursts_per_sec = bursts_per_sec.subspan(off, n);
  s.conns_inside = conns_inside.subspan(off, n);
  s.conns_outside = conns_outside.subspan(off, n);
  return s;
}

std::span<const std::byte> ServerRunColumns::column_bytes(
    std::size_t col) const {
  const std::span<const std::byte> cols[] = {
      std::as_bytes(rack_id),        std::as_bytes(region),
      std::as_bytes(hour),           std::as_bytes(bursty),
      std::as_bytes(avg_util),       std::as_bytes(util_inside),
      std::as_bytes(util_outside),   std::as_bytes(bursts_per_sec),
      std::as_bytes(conns_inside),   std::as_bytes(conns_outside)};
  return cols[col];
}

BurstRecord BurstColumns::operator[](std::size_t i) const {
  BurstRecord v;
  v.rack_id = rack_id[i];
  v.region = region[i];
  v.hour = hour[i];
  v.len_ms = len_ms[i];
  v.volume_bytes = volume_bytes[i];
  v.max_contention = max_contention[i];
  v.avg_conns = avg_conns[i];
  v.contended = contended[i];
  v.lossy = lossy[i];
  return v;
}

BurstColumns BurstColumns::slice(std::size_t off, std::size_t n) const {
  BurstColumns s;
  s.rack_id = rack_id.subspan(off, n);
  s.region = region.subspan(off, n);
  s.hour = hour.subspan(off, n);
  s.len_ms = len_ms.subspan(off, n);
  s.volume_bytes = volume_bytes.subspan(off, n);
  s.max_contention = max_contention.subspan(off, n);
  s.avg_conns = avg_conns.subspan(off, n);
  s.contended = contended.subspan(off, n);
  s.lossy = lossy.subspan(off, n);
  return s;
}

std::span<const std::byte> BurstColumns::column_bytes(std::size_t col) const {
  const std::span<const std::byte> cols[] = {
      std::as_bytes(rack_id),      std::as_bytes(region),
      std::as_bytes(hour),         std::as_bytes(len_ms),
      std::as_bytes(volume_bytes), std::as_bytes(max_contention),
      std::as_bytes(avg_conns),    std::as_bytes(contended),
      std::as_bytes(lossy)};
  return cols[col];
}

WindowCounts WindowView::counts() const {
  WindowCounts c;
  c.has_run = has_run ? 1 : 0;
  c.server_runs = static_cast<std::uint32_t>(server_runs.size());
  c.bursts = static_cast<std::uint32_t>(bursts.size());
  return c;
}

DatasetView::~DatasetView() { close(); }

DatasetView::DatasetView(DatasetView&& other) noexcept {
  *this = std::move(other);
}

DatasetView& DatasetView::operator=(DatasetView&& other) noexcept {
  if (this == &other) return *this;
  close();
  data_ = other.data_;
  size_ = other.size_;
  map_base_ = other.map_base_;
  map_len_ = other.map_len_;
  fingerprint_ = other.fingerprint_;
  config_ = other.config_;
  shard_ = other.shard_;
  window_begin_ = other.window_begin_;
  window_end_ = other.window_end_;
  windows_ = other.windows_;
  racks_ = other.racks_;
  rack_runs_ = other.rack_runs_;
  server_runs_ = other.server_runs_;
  bursts_ = other.bursts_;
  low_ = std::move(other.low_);
  high_ = std::move(other.high_);
  path_ = std::move(other.path_);
  other.data_ = nullptr;
  other.size_ = 0;
  other.map_base_ = nullptr;
  other.map_len_ = 0;
  return *this;
}

void DatasetView::close() {
  if (map_base_ != nullptr) {
    ::munmap(map_base_, map_len_);
  }
  map_base_ = nullptr;
  map_len_ = 0;
  data_ = nullptr;
  size_ = 0;
  windows_ = {};
  racks_ = {};
  rack_runs_ = {};
  server_runs_ = {};
  bursts_ = {};
  low_ = {};
  high_ = {};
  path_.clear();
}

util::Status DatasetView::open(const std::string& path, DatasetView* out) {
  out->close();
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    return util::Status::error("not a regular file", path);
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return util::Status::error("cannot open for reading", path);
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return util::Status::error("cannot stat", path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return util::Status::error("empty file", path, 0);
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (base == MAP_FAILED) {
    return util::Status::error("mmap failed", path);
  }
  auto status =
      out->init(static_cast<const std::uint8_t*>(base), size, path);
  if (!status) {
    ::munmap(base, size);
    out->close();
    return status;
  }
  out->map_base_ = base;
  out->map_len_ = size;
  return util::Status::ok();
}

util::Status DatasetView::attach(const std::uint8_t* data, std::size_t size,
                                 DatasetView* out) {
  out->close();
  auto status = out->init(data, size, "<memory>");
  if (!status) out->close();
  return status;
}

util::Status DatasetView::init(const std::uint8_t* data, std::size_t size,
                               std::string path) {
  // The zero-copy column spans reinterpret the mapping as u64/double
  // arrays; a misaligned base (possible via attach() on an arbitrary
  // buffer, never via mmap) must fail closed, not hand out UB spans.
  if (reinterpret_cast<std::uintptr_t>(data) % wire::kMaxColumnAlign != 0) {
    return util::Status::error(
        "dataset base pointer is not 8-byte aligned (zero-copy column "
        "access needs an aligned mapping)",
        path);
  }
  wire::V6Header h;
  wire::V6Layout lay;
  if (auto st = wire::read_header_v6(data, size, size, &h, &lay); !st) {
    return st.with_path(path);
  }
  // Layout recomputation guarantees page-aligned column offsets today;
  // keep a cheap runtime tie-out so a future layout change (or a
  // hand-corrupted directory accepted by a weakened header check) can
  // never surface as a misaligned load.
  for (const auto& section : lay.columns) {
    for (const std::uint64_t off : section) {
      if (off % wire::kMaxColumnAlign != 0) {
        return util::Status::error(
            "column offset " + std::to_string(off) +
                " is not aligned for zero-copy access",
            path);
      }
    }
  }
  data_ = data;
  size_ = size;
  fingerprint_ = h.fingerprint;
  config_ = h.config;
  shard_ = h.shard;
  window_begin_ = h.window_begin;
  window_end_ = h.window_end;
  path_ = std::move(path);

  const auto& wcols = lay.columns[wire::kSecWindows];
  const std::uint64_t nw = h.counts.windows;
  windows_.has_run = col_span<std::uint8_t>(data, wcols[0], nw);
  windows_.server_runs = col_span<std::uint32_t>(data, wcols[1], nw);
  windows_.bursts = col_span<std::uint32_t>(data, wcols[2], nw);
  windows_.run_off = col_span<std::uint64_t>(data, wcols[3], nw);
  windows_.server_off = col_span<std::uint64_t>(data, wcols[4], nw);
  windows_.burst_off = col_span<std::uint64_t>(data, wcols[5], nw);

  const auto& rcols = lay.columns[wire::kSecRacks];
  const std::uint64_t nr = h.counts.racks;
  racks_.rack_id = col_span<std::uint32_t>(data, rcols[0], nr);
  racks_.region = col_span<std::uint8_t>(data, rcols[1], nr);
  racks_.ml_dense = col_span<std::uint8_t>(data, rcols[2], nr);
  racks_.distinct_tasks = col_span<std::uint16_t>(data, rcols[3], nr);
  racks_.dominant_share = col_span<float>(data, rcols[4], nr);
  racks_.intensity = col_span<float>(data, rcols[5], nr);
  racks_.busy_hour_avg_contention = col_span<float>(data, rcols[6], nr);
  racks_.rack_class = col_span<std::uint8_t>(data, rcols[7], nr);

  const auto& rrcols = lay.columns[wire::kSecRackRuns];
  const std::uint64_t nrr = h.counts.rack_runs;
  rack_runs_.rack_id = col_span<std::uint32_t>(data, rrcols[0], nrr);
  rack_runs_.region = col_span<std::uint8_t>(data, rrcols[1], nrr);
  rack_runs_.hour = col_span<std::uint8_t>(data, rrcols[2], nrr);
  rack_runs_.usable = col_span<std::uint8_t>(data, rrcols[3], nrr);
  rack_runs_.avg_contention = col_span<float>(data, rrcols[4], nrr);
  rack_runs_.min_active_contention =
      col_span<std::uint16_t>(data, rrcols[5], nrr);
  rack_runs_.p90_contention = col_span<std::uint16_t>(data, rrcols[6], nrr);
  rack_runs_.max_contention = col_span<std::uint16_t>(data, rrcols[7], nrr);
  rack_runs_.in_bytes = col_span<double>(data, rrcols[8], nrr);
  rack_runs_.drop_bytes = col_span<double>(data, rrcols[9], nrr);
  rack_runs_.ecn_bytes = col_span<double>(data, rrcols[10], nrr);

  const auto& scols = lay.columns[wire::kSecServerRuns];
  const std::uint64_t ns = h.counts.server_runs;
  server_runs_.rack_id = col_span<std::uint32_t>(data, scols[0], ns);
  server_runs_.region = col_span<std::uint8_t>(data, scols[1], ns);
  server_runs_.hour = col_span<std::uint8_t>(data, scols[2], ns);
  server_runs_.bursty = col_span<std::uint8_t>(data, scols[3], ns);
  server_runs_.avg_util = col_span<float>(data, scols[4], ns);
  server_runs_.util_inside = col_span<float>(data, scols[5], ns);
  server_runs_.util_outside = col_span<float>(data, scols[6], ns);
  server_runs_.bursts_per_sec = col_span<float>(data, scols[7], ns);
  server_runs_.conns_inside = col_span<float>(data, scols[8], ns);
  server_runs_.conns_outside = col_span<float>(data, scols[9], ns);

  const auto& bcols = lay.columns[wire::kSecBursts];
  const std::uint64_t nb = h.counts.bursts;
  bursts_.rack_id = col_span<std::uint32_t>(data, bcols[0], nb);
  bursts_.region = col_span<std::uint8_t>(data, bcols[1], nb);
  bursts_.hour = col_span<std::uint8_t>(data, bcols[2], nb);
  bursts_.len_ms = col_span<std::uint16_t>(data, bcols[3], nb);
  bursts_.volume_bytes = col_span<float>(data, bcols[4], nb);
  bursts_.max_contention = col_span<std::uint16_t>(data, bcols[5], nb);
  bursts_.avg_conns = col_span<float>(data, bcols[6], nb);
  bursts_.contended = col_span<std::uint8_t>(data, bcols[7], nb);
  bursts_.lossy = col_span<std::uint8_t>(data, bcols[8], nb);

  // The window directory must tie out exactly: offsets are the running
  // sums of the counts, and the totals match the record sections.  After
  // this check every window(ordinal) slice is bounds-safe by construction.
  std::uint64_t runs = 0, servers = 0, bursts = 0;
  for (std::uint64_t i = 0; i < nw; ++i) {
    if (windows_.has_run[i] > 1) {
      return util::Status::error(
          "window directory has_run out of range at window " +
              std::to_string(i),
          path_, static_cast<std::int64_t>(wcols[0] + i));
    }
    if (windows_.run_off[i] != runs || windows_.server_off[i] != servers ||
        windows_.burst_off[i] != bursts) {
      return util::Status::error(
          "window directory offsets disagree with counts at window " +
              std::to_string(i),
          path_, static_cast<std::int64_t>(wcols[3] + i * 8));
    }
    runs += windows_.has_run[i];
    servers += windows_.server_runs[i];
    bursts += windows_.bursts[i];
  }
  if (runs != nrr || servers != ns || bursts != nb) {
    return util::Status::error(
        "window directory totals disagree with the record sections", path_,
        static_cast<std::int64_t>(lay.dir[wire::kSecWindows].offset));
  }

  // Exemplars: the row-encoded tail must decode and consume the section
  // exactly.
  const auto& ex = lay.dir[wire::kSecExemplars];
  wire::Reader er(data + ex.offset, static_cast<std::size_t>(ex.bytes));
  if (!wire::get_exemplar(er, &low_) || !wire::get_exemplar(er, &high_) ||
      er.remaining() != 0) {
    return util::Status::error(
        "corrupt exemplar section", path_,
        static_cast<std::int64_t>(ex.offset + er.pos));
  }
  return util::Status::ok();
}

std::uint64_t DatasetView::total_windows() const {
  return 2ull * static_cast<std::uint64_t>(config_.racks_per_region) *
         static_cast<std::uint64_t>(config_.hours);
}

WindowKey DatasetView::key_of(std::uint64_t absolute_index) const {
  const std::uint64_t total_racks =
      2ull * static_cast<std::uint64_t>(config_.racks_per_region);
  WindowKey k;
  k.rack_ordinal = static_cast<std::uint32_t>(absolute_index % total_racks);
  k.hour = static_cast<std::uint8_t>(absolute_index / total_racks);
  k.rack_id = racks_.rack_id[k.rack_ordinal];
  k.region = racks_.region[k.rack_ordinal];
  return k;
}

WindowView DatasetView::window(std::size_t ordinal) const {
  WindowView v;
  v.index = window_begin_ + ordinal;
  v.key = key_of(v.index);
  v.has_run = windows_.has_run[ordinal] != 0;
  v.rack_run = rack_runs_.slice(
      static_cast<std::size_t>(windows_.run_off[ordinal]),
      v.has_run ? 1 : 0);
  v.server_runs = server_runs_.slice(
      static_cast<std::size_t>(windows_.server_off[ordinal]),
      windows_.server_runs[ordinal]);
  v.bursts =
      bursts_.slice(static_cast<std::size_t>(windows_.burst_off[ordinal]),
                    windows_.bursts[ordinal]);
  return v;
}

analysis::RackClass DatasetView::class_of(std::uint32_t rack_id) const {
  for (std::size_t i = 0; i < racks_.size(); ++i) {
    if (racks_.rack_id[i] == rack_id) {
      return static_cast<analysis::RackClass>(racks_.rack_class[i]);
    }
  }
  return analysis::RackClass::kRegATypical;
}

std::vector<RackInfo> DatasetView::rack_table() const {
  std::vector<RackInfo> out;
  out.reserve(racks_.size());
  for (std::size_t i = 0; i < racks_.size(); ++i) out.push_back(racks_[i]);
  return out;
}

// --- Dataset <-> view adapters -----------------------------------------

util::Status Dataset::open_mapped(const std::string& path,
                                  DatasetView* out) {
  return DatasetView::open(path, out);
}

Dataset Dataset::from_view(const DatasetView& v) {
  Dataset ds;
  ds.fingerprint = v.fingerprint();
  ds.config = v.config();
  ds.shard = v.shard();
  ds.window_begin = v.window_begin();
  ds.window_end = v.window_end();
  const auto& w = v.windows();
  ds.window_counts.reserve(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    WindowCounts c;
    c.has_run = w.has_run[i];
    c.server_runs = w.server_runs[i];
    c.bursts = w.bursts[i];
    ds.window_counts.push_back(c);
  }
  ds.racks = v.rack_table();
  ds.rack_runs.reserve(v.rack_runs().size());
  for (std::size_t i = 0; i < v.rack_runs().size(); ++i) {
    ds.rack_runs.push_back(v.rack_runs()[i]);
  }
  ds.server_runs.reserve(v.server_runs().size());
  for (std::size_t i = 0; i < v.server_runs().size(); ++i) {
    ds.server_runs.push_back(v.server_runs()[i]);
  }
  ds.bursts.reserve(v.bursts().size());
  for (std::size_t i = 0; i < v.bursts().size(); ++i) {
    ds.bursts.push_back(v.bursts()[i]);
  }
  ds.low_contention_example = v.low_contention_example();
  ds.high_contention_example = v.high_contention_example();
  return ds;
}

}  // namespace msamp::fleet
