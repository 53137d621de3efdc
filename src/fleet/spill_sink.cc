#include "fleet/spill_sink.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace msamp::fleet {

SpillSink::SpillSink(const FleetConfig& config, ShardSpec shard,
                     std::string out_path, std::size_t chunk_bytes)
    : head_(shard_head(config, shard)),
      out_(std::move(out_path)),
      chunk_bytes_(std::max<std::size_t>(chunk_bytes, 64)),
      // The flush budget is shared across all column buffers, so total
      // spill RSS stays near `chunk_bytes` no matter how many columns v6
      // has.
      col_chunk_bytes_(std::max<std::size_t>(
          chunk_bytes_ / (wire::kServerRunCols + wire::kBurstCols), 64)) {
  std::error_code ec;
  const auto parent = std::filesystem::path(out_).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  open_section(servers_, "servers", wire::kServerRunWidths);
  open_section(bursts_, "bursts", wire::kBurstWidths);
}

SpillSink::~SpillSink() {
  std::error_code ec;
  for (SectionSpills* sec : {&servers_, &bursts_}) {
    for (Spill& s : sec->cols) {
      if (s.file.is_open()) s.file.close();
      std::filesystem::remove(s.path, ec);
    }
  }
}

void SpillSink::open_section(SectionSpills& sec, const char* name,
                             std::span<const std::size_t> widths) {
  sec.widths = widths;
  sec.cols.resize(widths.size());
  for (std::size_t c = 0; c < widths.size(); ++c) {
    Spill& s = sec.cols[c];
    s.path = std::filesystem::path(out_ + ".spill-" + name + "-c" +
                                   std::to_string(c));
    // trunc: a leftover temp from a crashed earlier attempt is discarded,
    // which is what keeps a retry byte-identical to a first run.
    s.file.open(s.path, std::ios::binary | std::ios::trunc);
    if (!s.file) {
      throw std::runtime_error("SpillSink: cannot open spill file " +
                               s.path.string());
    }
  }
}

void SpillSink::flush(Spill& s) {
  if (s.buf.out.empty()) return;
  s.file.write(reinterpret_cast<const char*>(s.buf.out.data()),
               static_cast<std::streamsize>(s.buf.out.size()));
  s.buf.out.clear();
}

void SpillSink::on_window(std::size_t window, WindowRecords&& records) {
  append_window_head(head_, window, records, "SpillSink");
  const auto spill = [this](SectionSpills& sec, const auto& recs) {
    for (std::size_t c = 0; c < sec.cols.size(); ++c) {
      Spill& s = sec.cols[c];
      for (const auto& rec : recs) wire::put_column(s.buf, rec, c);
      if (s.buf.out.size() >= col_chunk_bytes_) flush(s);
    }
    sec.records += recs.size();
  };
  spill(servers_, records.server_runs);
  spill(bursts_, records.bursts);
}

wire::ColumnSource SpillSink::spilled(SectionSpills& sec) {
  return {sec.records, [this, &sec](std::size_t c, wire::Out& out) {
            const Spill& s = sec.cols[c];
            const std::uint64_t bytes = sec.records * sec.widths[c];
            std::ifstream in(s.path, std::ios::binary);
            std::vector<char> buf(static_cast<std::size_t>(
                std::clamp<std::uint64_t>(bytes, 1, chunk_bytes_)));
            for (std::uint64_t left = bytes; left > 0;) {
              const auto n = static_cast<std::size_t>(
                  std::min<std::uint64_t>(left, buf.size()));
              if (!in.read(buf.data(), static_cast<std::streamsize>(n))) {
                return util::Status::error("cannot read back spill file",
                                           s.path.string());
              }
              out.write(buf.data(), n);
              left -= n;
            }
            return util::Status::ok();
          }};
}

util::Status SpillSink::finalize() {
  if (finalized_ || head_.window_counts.size() !=
                        static_cast<std::size_t>(head_.window_end -
                                                 head_.window_begin)) {
    throw std::logic_error(
        finalized_ ? "SpillSink: finalize() called twice"
                   : "SpillSink: finalize() before the shard's window range "
                     "completed");
  }
  finalized_ = true;
  for (SectionSpills* sec : {&servers_, &bursts_}) {
    for (std::size_t c = 0; c < sec->cols.size(); ++c) {
      Spill& s = sec->cols[c];
      flush(s);
      s.file.close();
      if (s.file.fail()) {
        return util::Status::error("cannot write spill file",
                                   s.path.string());
      }
      // Non-throwing file_size: a spill file that vanished (or sits on a
      // flaky mount) must surface as an error Status, not as a
      // filesystem_error unwinding through the worker.
      std::error_code size_ec;
      const std::uintmax_t spill_size =
          std::filesystem::file_size(s.path, size_ec);
      if (size_ec || spill_size != sec->records * sec->widths[c]) {
        return util::Status::error("spill file size disagrees with its "
                                   "record count",
                                   s.path.string());
      }
    }
  }
  // A full-range shard carries the busy-hour classification, exactly as
  // DatasetBuilder::take().
  if (head_.shard.full_range()) finalize_classification(head_);
  if (auto st = wire::write_v6(head_, spilled(servers_), spilled(bursts_),
                               out_);
      !st) {
    return st;
  }
  std::error_code ec;
  for (SectionSpills* sec : {&servers_, &bursts_}) {
    for (Spill& s : sec->cols) std::filesystem::remove(s.path, ec);
  }
  return util::Status::ok();
}

}  // namespace msamp::fleet
