#include "fleet/dataset_view.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <utility>

#include "fleet/wire.h"

namespace msamp::fleet {

RackInfo RackInfoColumns::operator[](std::size_t i) const {
  return wire::row(*this, i);
}

RackRunRecord RackRunColumns::operator[](std::size_t i) const {
  return wire::row(*this, i);
}

ServerRunRecord ServerRunColumns::operator[](std::size_t i) const {
  return wire::row(*this, i);
}

BurstRecord BurstColumns::operator[](std::size_t i) const {
  return wire::row(*this, i);
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
  windows_.has_run = wire::col_span<std::uint8_t>(data, wcols[0], nw);
  windows_.server_runs = wire::col_span<std::uint32_t>(data, wcols[1], nw);
  windows_.bursts = wire::col_span<std::uint32_t>(data, wcols[2], nw);
  windows_.run_off = wire::col_span<std::uint64_t>(data, wcols[3], nw);
  windows_.server_off = wire::col_span<std::uint64_t>(data, wcols[4], nw);
  windows_.burst_off = wire::col_span<std::uint64_t>(data, wcols[5], nw);
  racks_ = wire::map_columns<RackInfoColumns>(
      data, lay.columns[wire::kSecRacks], h.counts.racks);
  rack_runs_ = wire::map_columns<RackRunColumns>(
      data, lay.columns[wire::kSecRackRuns], h.counts.rack_runs);
  server_runs_ = wire::map_columns<ServerRunColumns>(
      data, lay.columns[wire::kSecServerRuns], h.counts.server_runs);
  bursts_ = wire::map_columns<BurstColumns>(
      data, lay.columns[wire::kSecBursts], h.counts.bursts);

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
  if (runs != h.counts.rack_runs || servers != h.counts.server_runs ||
      bursts != h.counts.bursts) {
    return util::Status::error(
        "window directory totals disagree with the record sections", path_,
        static_cast<std::int64_t>(lay.dir[wire::kSecWindows].offset));
  }

  // Every reader indexes per-class arrays by a rack's class, so a class
  // out of range fails the open, not the read that would index past them.
  for (std::size_t i = 0; i < racks_.size(); ++i) {
    if (racks_.rack_class[i] >= analysis::kNumRackClasses) {
      return util::Status::error(
          "rack table class " + std::to_string(racks_.rack_class[i]) +
              " out of range at rack " + std::to_string(i) + " (rack id " +
              std::to_string(racks_.rack_id[i]) + ")",
          path_,
          static_cast<std::int64_t>(&racks_.rack_class[i] - data));
    }
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
  v.rack_run = wire::slice(
      rack_runs_, static_cast<std::size_t>(windows_.run_off[ordinal]),
      v.has_run ? 1 : 0);
  v.server_runs = wire::slice(
      server_runs_, static_cast<std::size_t>(windows_.server_off[ordinal]),
      windows_.server_runs[ordinal]);
  v.bursts = wire::slice(
      bursts_, static_cast<std::size_t>(windows_.burst_off[ordinal]),
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
  return wire::to_rows(racks_);
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
  ds.rack_runs = wire::to_rows(v.rack_runs());
  ds.server_runs = wire::to_rows(v.server_runs());
  ds.bursts = wire::to_rows(v.bursts());
  ds.low_contention_example = v.low_contention_example();
  ds.high_contention_example = v.high_contention_example();
  return ds;
}

}  // namespace msamp::fleet
