#include "fleet/wire.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <utility>

namespace msamp::fleet::wire {

// --- columnar field appenders ------------------------------------------
// Column order must match the width tables in wire.h.

void put_column(Writer& w, const RackInfo& v, std::size_t col) {
  switch (col) {
    case 0: w.put(v.rack_id); return;
    case 1: w.put(v.region); return;
    case 2: w.put(v.ml_dense); return;
    case 3: w.put(v.distinct_tasks); return;
    case 4: w.put(v.dominant_share); return;
    case 5: w.put(v.intensity); return;
    case 6: w.put(v.busy_hour_avg_contention); return;
    case 7: w.put(v.rack_class); return;
    default: std::abort();
  }
}

void put_column(Writer& w, const RackRunRecord& v, std::size_t col) {
  switch (col) {
    case 0: w.put(v.rack_id); return;
    case 1: w.put(v.region); return;
    case 2: w.put(v.hour); return;
    case 3: w.put(v.usable); return;
    case 4: w.put(v.avg_contention); return;
    case 5: w.put(v.min_active_contention); return;
    case 6: w.put(v.p90_contention); return;
    case 7: w.put(v.max_contention); return;
    case 8: w.put(v.in_bytes); return;
    case 9: w.put(v.drop_bytes); return;
    case 10: w.put(v.ecn_bytes); return;
    default: std::abort();
  }
}

void put_column(Writer& w, const ServerRunRecord& v, std::size_t col) {
  switch (col) {
    case 0: w.put(v.rack_id); return;
    case 1: w.put(v.region); return;
    case 2: w.put(v.hour); return;
    case 3: w.put(v.bursty); return;
    case 4: w.put(v.avg_util); return;
    case 5: w.put(v.util_inside); return;
    case 6: w.put(v.util_outside); return;
    case 7: w.put(v.bursts_per_sec); return;
    case 8: w.put(v.conns_inside); return;
    case 9: w.put(v.conns_outside); return;
    default: std::abort();
  }
}

void put_column(Writer& w, const BurstRecord& v, std::size_t col) {
  switch (col) {
    case 0: w.put(v.rack_id); return;
    case 1: w.put(v.region); return;
    case 2: w.put(v.hour); return;
    case 3: w.put(v.len_ms); return;
    case 4: w.put(v.volume_bytes); return;
    case 5: w.put(v.max_contention); return;
    case 6: w.put(v.avg_conns); return;
    case 7: w.put(v.contended); return;
    case 8: w.put(v.lossy); return;
    default: std::abort();
  }
}

// --- config / exemplar codecs ------------------------------------------

void put_config(Writer& w, const FleetConfig& c) {
  w.put(c.seed);
  w.put(static_cast<std::int32_t>(c.racks_per_region));
  w.put(static_cast<std::int32_t>(c.servers_per_rack));
  w.put(static_cast<std::int32_t>(c.hours));
  w.put(static_cast<std::int32_t>(c.samples_per_run));
  w.put(static_cast<std::int32_t>(c.warmup_ms));
  w.put(c.line_rate_gbps);
  w.put(c.buffer.total_bytes);
  w.put(static_cast<std::int32_t>(c.buffer.quadrants));
  w.put(c.buffer.reserve_per_queue);
  w.put(c.buffer.alpha);
  w.put(c.buffer.ecn_threshold);
  w.put(static_cast<std::uint8_t>(c.buffer.policy));
  w.put(c.buffer.burst_alpha_boost);
  w.put(c.buffer.delay.target_delay_ms);
  w.put(c.buffer.delay.min_gain);
  w.put(c.buffer.delay.max_gain);
  w.put(c.buffer.delay.drain_gbps);
  w.put(c.rtt_ms);
  w.put(static_cast<std::int64_t>(c.mss));
  w.put(static_cast<std::uint8_t>(c.fabric.enabled ? 1 : 0));
  w.put(c.fabric.uplink_gbps);
  w.put(c.fabric.smoothing);
  w.put(static_cast<std::int32_t>(c.filter_cpus));
  w.put(static_cast<std::int64_t>(c.clocks.offset_stddev));
  w.put(static_cast<std::int64_t>(c.clocks.offset_max));
  w.put(static_cast<std::int32_t>(c.loss.rtt_shift_samples));
  w.put(static_cast<std::int32_t>(c.loss.lag_samples));
  w.put(c.classify.high_threshold);
}

bool get_config(Reader& r, FleetConfig* c) {
  std::int32_t racks = 0, servers = 0, hours = 0, samples = 0, warmup = 0;
  std::int32_t quadrants = 0, filter_cpus = 0, rtt_shift = 0, lag = 0;
  std::uint8_t policy = 0, fabric_enabled = 0;
  std::int64_t mss = 0, stddev = 0, offmax = 0;
  if (!(r.get(&c->seed) && r.get(&racks) && r.get(&servers) &&
        r.get(&hours) && r.get(&samples) && r.get(&warmup) &&
        r.get(&c->line_rate_gbps) && r.get(&c->buffer.total_bytes) &&
        r.get(&quadrants) && r.get(&c->buffer.reserve_per_queue) &&
        r.get(&c->buffer.alpha) && r.get(&c->buffer.ecn_threshold) &&
        r.get(&policy) && r.get(&c->buffer.burst_alpha_boost) &&
        r.get(&c->buffer.delay.target_delay_ms) &&
        r.get(&c->buffer.delay.min_gain) &&
        r.get(&c->buffer.delay.max_gain) &&
        r.get(&c->buffer.delay.drain_gbps) && r.get(&c->rtt_ms) &&
        r.get(&mss) && r.get(&fabric_enabled) &&
        r.get(&c->fabric.uplink_gbps) && r.get(&c->fabric.smoothing) &&
        r.get(&filter_cpus) && r.get(&stddev) && r.get(&offmax) &&
        r.get(&rtt_shift) && r.get(&lag) &&
        r.get(&c->classify.high_threshold))) {
    return false;
  }
  // The scale fields size window ranges and allocations downstream; reject
  // negatives (and an out-of-range policy byte) as corruption up front.
  if (racks < 0 || servers < 0 || hours < 0 || samples < 0 || warmup < 0) {
    return false;
  }
  if (policy > static_cast<std::uint8_t>(net::BufferPolicy::kDelayDriven)) {
    return false;
  }
  c->racks_per_region = racks;
  c->servers_per_rack = servers;
  c->hours = hours;
  c->samples_per_run = samples;
  c->warmup_ms = warmup;
  c->buffer.quadrants = quadrants;
  c->buffer.policy = static_cast<net::BufferPolicy>(policy);
  c->mss = mss;
  c->fabric.enabled = fabric_enabled != 0;
  c->filter_cpus = filter_cpus;
  c->clocks.offset_stddev = stddev;
  c->clocks.offset_max = offmax;
  c->loss.rtt_shift_samples = rtt_shift;
  c->loss.lag_samples = lag;
  c->threads = 0;  // execution detail; never travels with data
  return true;
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
  // magic, version, fingerprint, config, shard index/count, window range,
  // four record-count u64s, section directory.
  return 4 + 4 + 8 + config_wire_size() + 4 + 4 + 8 + 8 + 4 * 8 +
         kNumSections * 16;
}

V6Layout v6_layout(const SectionCounts& counts) {
  struct Spec {
    std::size_t n_cols;
    const std::size_t* widths;
    std::uint64_t count;
  };
  const Spec specs[] = {
      {kWindowDirCols, kWindowDirWidths, counts.windows},
      {kRackCols, kRackWidths, counts.racks},
      {kRackRunCols, kRackRunWidths, counts.rack_runs},
      {kServerRunCols, kServerRunWidths, counts.server_runs},
      {kBurstCols, kBurstWidths, counts.bursts},
  };
  V6Layout lay;
  lay.header_bytes = header_bytes_v6();
  std::uint64_t cursor = lay.header_bytes;
  for (std::size_t s = 0; s < std::size(specs); ++s) {
    auto& cols = lay.columns[s];
    cols.resize(specs[s].n_cols);
    for (std::size_t c = 0; c < specs[s].n_cols; ++c) {
      cursor = align_segment(cursor);
      cols[c] = cursor;
      cursor += specs[s].count * specs[s].widths[c];
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
  if (!get_config(r, &h->config)) {
    return util::Status::error("corrupt serialized FleetConfig", {}, 16);
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

std::size_t exemplar_wire_bytes(const ExemplarRun& e) {
  return 4 + 4 + 2 + 2 + 8 + e.raster.size() + 8 + 2 * e.contention.size();
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
  h.counts.exemplar_bytes = exemplar_wire_bytes(head.low_contention_example) +
                            exemplar_wire_bytes(head.high_contention_example);
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
  const std::size_t* const widths[] = {kWindowDirWidths, kRackWidths,
                                       kRackRunWidths, kServerRunWidths,
                                       kBurstWidths};
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
      const std::uint64_t end = cols[c] + src.records * widths[sec][c];
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
  put_exemplar(out.w, head.low_contention_example);
  put_exemplar(out.w, head.high_contention_example);
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
