#include "fleet/wire.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <span>
#include <sstream>
#include <type_traits>
#include <utility>

namespace msamp::fleet::wire {

namespace {

/// The values a serialized field may hold: at least `lo` (more than `lo`
/// when `open`: the model divides or steps by the field) and at most
/// `hi`.  NaN is in no range, and the default `hi` keeps infinity out.
struct Range {
  double lo = 0.0;
  double hi = std::numeric_limits<double>::max();
  bool open = false;
  bool holds(double x) const { return (open ? x > lo : x >= lo) && x <= hi; }
};
constexpr Range kPositive{.open = true};
constexpr Range upto(double hi) { return {.hi = hi}; }

/// Wire type of one serialized FleetConfig field, and the values the
/// field may hold (by default finite and >= 0).
template <typename W>
struct As {
  using type = W;
  Range range{};
};

/// The serialized FleetConfig fields in wire order: `field(name,
/// c.<member>, As<wire type>{range})` per field.  The codec,
/// FleetConfig::validate() and FleetConfig::differing_field() all walk
/// this one list.  `threads` is absent: execution detail, never data.
template <typename Config, typename Fn>
void config_fields(Config& c, Fn&& field) {
  using I32 = As<std::int32_t>;
  using I64 = As<std::int64_t>;
  using F64 = As<double>;
  field("seed", c.seed, As<std::uint64_t>{});
  field("racks_per_region", c.racks_per_region, I32{});
  // A record stores the hour in a u8 and server and sample counts in u16s.
  field("servers_per_rack", c.servers_per_rack, I32{upto(65535)});
  field("hours", c.hours, I32{upto(256)});
  field("samples_per_run", c.samples_per_run, I32{upto(65535)});
  field("warmup_ms", c.warmup_ms, I32{});
  field("line_rate_gbps", c.line_rate_gbps, F64{kPositive});
  field("buffer.total_bytes", c.buffer.total_bytes, I64{});
  field("buffer.quadrants", c.buffer.quadrants, I32{kPositive});
  field("buffer.reserve_per_queue", c.buffer.reserve_per_queue, I64{});
  field("buffer.alpha", c.buffer.alpha, F64{});
  field("buffer.ecn_threshold", c.buffer.ecn_threshold, I64{});
  field("buffer.policy", c.buffer.policy,
        As<std::uint8_t>{upto(net::kNumBufferPolicies - 1)});
  field("buffer.burst_alpha_boost", c.buffer.burst_alpha_boost, F64{});
  field("buffer.delay.target_delay_ms", c.buffer.delay.target_delay_ms,
        F64{});
  field("buffer.delay.min_gain", c.buffer.delay.min_gain, F64{});
  field("buffer.delay.max_gain", c.buffer.delay.max_gain, F64{});
  field("buffer.delay.drain_gbps", c.buffer.delay.drain_gbps, F64{});
  field("rtt_ms", c.rtt_ms, F64{kPositive});
  field("mss", c.mss, I64{});
  field("fabric.enabled", c.fabric.enabled, As<std::uint8_t>{upto(1)});
  field("fabric.uplink_gbps", c.fabric.uplink_gbps, F64{});
  field("fabric.smoothing", c.fabric.smoothing, F64{upto(1)});
  field("filter_cpus", c.filter_cpus, I32{kPositive});
  field("clocks.offset_stddev", c.clocks.offset_stddev, I64{});
  field("clocks.offset_max", c.clocks.offset_max, I64{});
  field("loss.rtt_shift_samples", c.loss.rtt_shift_samples, I32{});
  field("loss.lag_samples", c.loss.lag_samples, I32{});
  field("classify.high_threshold", c.classify.high_threshold, F64{});
}

void put_header_v6(Writer& w, const V6Header& h) {
  w.put(kMagic);
  w.put(kVersion);
  w.put(h.fingerprint);
  put_config(w, h.config);
  w.put(h.shard.index);
  w.put(h.shard.count);
  w.put(h.window_begin);
  w.put(h.window_end);
  w.put(h.counts.racks);
  w.put(h.counts.rack_runs);
  w.put(h.counts.server_runs);
  w.put(h.counts.bursts);
  for (const auto& d : h.dir) {
    w.put(d.offset);
    w.put(d.bytes);
  }
}

/// Column widths of the five columnar sections, indexed by Section.
constexpr std::span<const std::size_t> kSectionWidths[] = {
    kWindowDirWidths, kWidths<RackInfo>, kWidths<RackRunRecord>,
    kWidths<ServerRunRecord>, kWidths<BurstRecord>};

}  // namespace

// --- config / exemplar codecs ------------------------------------------

void put_config(Writer& w, const FleetConfig& c) {
  config_fields(c, [&w](const char*, const auto& v, auto as) {
    w.put(static_cast<typename decltype(as)::type>(v));
  });
}

util::Status get_config(Reader& r, FleetConfig* c) {
  bool ok = true;
  config_fields(*c, [&](const char*, auto& v, auto as) {
    typename decltype(as)::type x{};
    ok = ok && r.get(&x);
    v = static_cast<std::remove_reference_t<decltype(v)>>(x);
  });
  if (!ok) return util::Status::error("truncated");
  c->threads = 0;  // execution detail; never travels with data
  return c->validate();
}

void put_exemplar(Writer& w, const ExemplarRun& e) {
  w.put(e.rack_id);
  w.put(e.avg_contention);
  w.put(e.num_servers);
  w.put(e.num_samples);
  w.put_vec(e.raster);
  w.put_vec(e.contention);
}

bool get_exemplar(Reader& r, ExemplarRun* e) {
  return r.get(&e->rack_id) && r.get(&e->avg_contention) &&
         r.get(&e->num_servers) && r.get(&e->num_samples) &&
         r.get_vec(&e->raster) && r.get_vec(&e->contention);
}

// --- v6 layout ----------------------------------------------------------

std::size_t config_wire_size() {
  Writer w;
  put_config(w, FleetConfig{});
  return w.out.size();
}

std::size_t header_bytes_v6() {
  Writer w;
  put_header_v6(w, V6Header{});
  return w.out.size();
}

V6Layout v6_layout(const SectionCounts& counts) {
  const std::uint64_t records[] = {counts.windows, counts.racks,
                                   counts.rack_runs, counts.server_runs,
                                   counts.bursts};
  V6Layout lay;
  lay.header_bytes = header_bytes_v6();
  std::uint64_t cursor = lay.header_bytes;
  for (std::size_t s = 0; s < std::size(records); ++s) {
    auto& cols = lay.columns[s];
    for (const std::size_t width : kSectionWidths[s]) {
      cursor = align_segment(cursor);
      cols.push_back(cursor);
      cursor += records[s] * width;
    }
    lay.dir[s].offset = cols.front();
    lay.dir[s].bytes = cursor - cols.front();
  }
  cursor = align_segment(cursor);
  lay.columns[kSecExemplars] = {cursor};
  lay.dir[kSecExemplars] = {cursor, counts.exemplar_bytes};
  lay.file_bytes = cursor + counts.exemplar_bytes;
  return lay;
}

util::Status read_header_v6(const std::uint8_t* data, std::size_t available,
                            std::uint64_t file_size, V6Header* h,
                            V6Layout* layout) {
  const std::size_t need = header_bytes_v6();
  if (available < need || file_size < need) {
    return util::Status::error(
        "truncated header: need " + std::to_string(need) + " bytes, have " +
            std::to_string(file_size < available ? file_size : available),
        {}, static_cast<std::int64_t>(file_size));
  }
  Reader r(data, need);
  std::uint32_t magic = 0, version = 0;
  if (!r.get(&magic) || magic != kMagic) {
    return util::Status::error("not a dataset file (bad magic)", {}, 0);
  }
  if (!r.get(&version)) return util::Status::error("truncated header", {}, 4);
  if (version != kVersion) {
    return util::Status::error(
        "unsupported dataset version " + std::to_string(version), {}, 4);
  }
  if (!r.get(&h->fingerprint)) {
    return util::Status::error("truncated header", {}, 8);
  }
  if (auto st = get_config(r, &h->config); !st) {
    return util::Status::error("corrupt serialized FleetConfig: " + st.reason(),
                               {}, 16);
  }
  if (!r.get(&h->shard.index) || !r.get(&h->shard.count) ||
      !h->shard.valid()) {
    return util::Status::error("invalid shard header", {},
                               static_cast<std::int64_t>(r.pos));
  }
  if (!r.get(&h->window_begin) || !r.get(&h->window_end)) {
    return util::Status::error("truncated header", {},
                               static_cast<std::int64_t>(r.pos));
  }
  // The shard's window range must be exactly what the canonical balanced
  // partition assigns it for this config's day.
  const std::uint64_t total =
      2ull * static_cast<std::uint64_t>(h->config.racks_per_region) *
      static_cast<std::uint64_t>(h->config.hours);
  if (h->window_begin !=
          h->shard.begin(static_cast<std::size_t>(total)) ||
      h->window_end != h->shard.end(static_cast<std::size_t>(total))) {
    return util::Status::error(
        "window range is not the canonical slice for shard " +
            std::to_string(h->shard.index) + "/" +
            std::to_string(h->shard.count),
        {}, static_cast<std::int64_t>(r.pos));
  }
  h->counts.windows = h->window_end - h->window_begin;
  if (!r.get(&h->counts.racks) || !r.get(&h->counts.rack_runs) ||
      !r.get(&h->counts.server_runs) || !r.get(&h->counts.bursts)) {
    return util::Status::error("truncated header", {},
                               static_cast<std::int64_t>(r.pos));
  }
  // Every shard carries the complete rack table; the window keying of the
  // view (rack = index % total_racks) depends on it.
  if (h->counts.racks !=
      2ull * static_cast<std::uint64_t>(h->config.racks_per_region)) {
    return util::Status::error(
        "rack table has " + std::to_string(h->counts.racks) +
            " entries, expected " +
            std::to_string(2ull * static_cast<std::uint64_t>(
                                      h->config.racks_per_region)),
        {}, static_cast<std::int64_t>(r.pos));
  }
  // Each record type has at least one 1-byte column, so any genuine count
  // is bounded by the file size; reject hostile counts before they can
  // overflow the layout arithmetic below.
  if (h->counts.windows > file_size || h->counts.racks > file_size ||
      h->counts.rack_runs > file_size || h->counts.server_runs > file_size ||
      h->counts.bursts > file_size) {
    return util::Status::error("record count exceeds file size", {},
                               static_cast<std::int64_t>(r.pos));
  }
  const std::int64_t dir_pos = static_cast<std::int64_t>(r.pos);
  for (auto& d : h->dir) {
    if (!r.get(&d.offset) || !r.get(&d.bytes)) {
      return util::Status::error("truncated header", {},
                                 static_cast<std::int64_t>(r.pos));
    }
  }
  h->counts.exemplar_bytes = h->dir[kSecExemplars].bytes;
  if (h->counts.exemplar_bytes > file_size) {
    return util::Status::error("exemplar section exceeds file size", {},
                               dir_pos);
  }
  // The directory must match the layout the counts imply — v6 layout is a
  // pure function of the counts, so any disagreement is corruption.
  *layout = v6_layout(h->counts);
  for (std::size_t s = 0; s < kNumSections; ++s) {
    if (h->dir[s].offset != layout->dir[s].offset ||
        h->dir[s].bytes != layout->dir[s].bytes) {
      return util::Status::error(
          "section directory entry " + std::to_string(s) +
              " disagrees with the layout implied by the record counts",
          {}, dir_pos);
    }
  }
  if (layout->file_bytes != file_size) {
    return util::Status::error(
        "file is " + std::to_string(file_size) + " bytes, layout needs " +
            std::to_string(layout->file_bytes),
        {}, static_cast<std::int64_t>(file_size));
  }
  return util::Status::ok();
}

// --- the v6 writer ------------------------------------------------------

void Out::flush() {
  if (file == nullptr || w.out.empty()) return;
  file->write(reinterpret_cast<const char*>(w.out.data()),
              static_cast<std::streamsize>(w.out.size()));
  flushed += w.out.size();
  w.out.clear();
}

void Out::write(const void* data, std::size_t bytes) {
  if (bytes == 0) return;
  if (file == nullptr) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    w.out.insert(w.out.end(), p, p + bytes);
    return;
  }
  flush();
  file->write(static_cast<const char*>(data),
              static_cast<std::streamsize>(bytes));
  flushed += bytes;
}

void Out::pad_to(std::uint64_t target) {
  if (pos() > target) std::abort();
  w.out.resize(w.out.size() + static_cast<std::size_t>(target - pos()));
  flush_if_full();
}

namespace {

/// Lays `head` and the two bulky sources out as one v6 file on `out`.
util::Status lay_out(const Dataset& head, const ColumnSource& server_runs,
                     const ColumnSource& bursts, Out& out) {
  V6Header h;
  h.fingerprint = head.fingerprint;
  h.config = head.config;
  h.shard = head.shard;
  h.window_begin = head.window_begin;
  h.window_end = head.window_end;
  h.counts.windows = head.window_counts.size();
  h.counts.racks = head.racks.size();
  h.counts.rack_runs = head.rack_runs.size();
  h.counts.server_runs = server_runs.records;
  h.counts.bursts = bursts.records;
  Writer exemplars;
  put_exemplar(exemplars, head.low_contention_example);
  put_exemplar(exemplars, head.high_contention_example);
  h.counts.exemplar_bytes = exemplars.out.size();
  const V6Layout lay = v6_layout(h.counts);
  h.dir = lay.dir;
  if (out.file == nullptr) out.w.out.reserve(lay.file_bytes);
  put_header_v6(out.w, h);

  // Window directory: the count columns, then the running record offsets
  // (prefix sums over the counts; the first window starts at 0).
  const auto window_column = [&](std::size_t col, auto value_of) {
    out.pad_to(lay.columns[kSecWindows][col]);
    for (const WindowCounts& c : head.window_counts) {
      out.w.put(value_of(c));
      out.flush_if_full();
    }
  };
  window_column(0, [](const WindowCounts& c) { return c.has_run; });
  window_column(1, [](const WindowCounts& c) { return c.server_runs; });
  window_column(2, [](const WindowCounts& c) { return c.bursts; });
  std::uint64_t run_off = 0, server_off = 0, burst_off = 0;
  window_column(3, [&](const WindowCounts& c) {
    return std::exchange(run_off, run_off + (c.has_run != 0 ? 1 : 0));
  });
  window_column(4, [&](const WindowCounts& c) {
    return std::exchange(server_off, server_off + c.server_runs);
  });
  window_column(5, [&](const WindowCounts& c) {
    return std::exchange(burst_off, burst_off + c.bursts);
  });

  // Record sections, one column at a time; each column must end exactly
  // where the layout says before the next one is padded to.
  const std::pair<Section, ColumnSource> sections[] = {
      {kSecRacks, rows(head.racks)},
      {kSecRackRuns, rows(head.rack_runs)},
      {kSecServerRuns, server_runs},
      {kSecBursts, bursts}};
  for (const auto& [sec, src] : sections) {
    const auto& cols = lay.columns[sec];
    for (std::size_t c = 0; c < cols.size(); ++c) {
      out.pad_to(cols[c]);
      if (auto st = src.put(c, out); !st) return st;
      const std::uint64_t end = cols[c] + src.records * kSectionWidths[sec][c];
      if (out.pos() != end) {
        return util::Status::error(
            "column " + std::to_string(c) + " of section " +
            std::to_string(sec) + " ends at byte " +
            std::to_string(out.pos()) + ", layout needs " +
            std::to_string(end));
      }
    }
  }

  out.pad_to(lay.columns[kSecExemplars][0]);
  out.write(exemplars.out.data(), exemplars.out.size());
  if (out.pos() != lay.file_bytes) {  // layout is the law
    return util::Status::error("wrote " + std::to_string(out.pos()) +
                               " bytes, layout needs " +
                               std::to_string(lay.file_bytes));
  }
  return util::Status::ok();
}

}  // namespace

util::Status write_v6(const Dataset& head, const ColumnSource& server_runs,
                      const ColumnSource& bursts, const std::string& path) {
  std::error_code ec;
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path(), ec);
  }
  // A sibling temp file renamed over the target: a crash or a failed
  // write can never leave a truncated dataset at `path`.
  std::filesystem::path tmp = target;
  tmp += ".tmp";
  util::Status st;
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) {
      return util::Status::error("cannot open temp file for writing",
                                 tmp.string());
    }
    Out out;
    out.file = &file;
    st = lay_out(head, server_runs, bursts, out);
    if (!st && st.path().empty()) st = st.with_path(path);
    out.flush();
    file.close();
    if (st && !file) st = util::Status::error("cannot write", tmp.string());
  }
  if (st) {
    std::filesystem::rename(tmp, target, ec);
    if (ec) {
      st = util::Status::error(
          "cannot rename " + tmp.string() + " over it: " + ec.message(),
          path);
    }
  }
  if (!st) std::filesystem::remove(tmp, ec);
  return st;
}

std::vector<std::uint8_t> v6_blob(const Dataset& head,
                                  const ColumnSource& server_runs,
                                  const ColumnSource& bursts) {
  Out out;
  // In-RAM sources cannot fail, so a failure here is a layout bug.
  if (!lay_out(head, server_runs, bursts, out)) std::abort();
  return std::move(out.w.out);
}

}  // namespace msamp::fleet::wire

namespace msamp::fleet {

util::Status FleetConfig::validate() const {
  util::Status st;
  wire::config_fields(*this, [&st](const char* name, const auto& v, auto as) {
    const auto x = static_cast<double>(
        static_cast<typename decltype(as)::type>(v));
    if (st && !as.range.holds(x)) {
      std::ostringstream os;
      os << name << " = " << x << " is outside " << (as.range.open ? "(" : "[")
         << as.range.lo << ", " << as.range.hi << "]";
      st = util::Status::error(os.str());
    }
  });
  return st;
}

std::string_view FleetConfig::differing_field(const FleetConfig& other) const {
  wire::Writer theirs, mine;
  wire::put_config(theirs, other);
  std::string_view first;
  wire::config_fields(*this, [&](const char* name, const auto& v, auto as) {
    const std::size_t at = mine.out.size();
    mine.put(static_cast<typename decltype(as)::type>(v));
    if (first.empty() && std::memcmp(mine.out.data() + at,
                                     theirs.out.data() + at,
                                     mine.out.size() - at) != 0) {
      first = name;
    }
  });
  return first;
}

}  // namespace msamp::fleet
