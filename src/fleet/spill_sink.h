// SpillSink: the disk-backed WindowSink every generation command writes
// through (`msampctl fleet`, `worker`, `sweep`, and `shared_view`).  Each
// completed window's server runs and bursts go into per-COLUMN buffers; a
// buffer that overflows its share of the chunk budget is flushed to its
// column's spill file (one per v6 column, so the final assembly is pure
// concatenation), and one that never overflows stays in RAM until
// finalize, so a small shard touches no file but its output.  Like
// `merge_shards`, it keeps in RAM only the small part of the day — the
// per-window count table, the rack runs, at most two exemplars — never
// the shard's records.  `finalize()` hands the columns to the one v6
// writer (fleet/wire.h), so its output is byte-identical to the in-memory
// reference `DatasetBuilder` + `Dataset::save` by construction
// (tests/test_spill_sink.cc byte-compares), written via an atomic rename:
// a killed process never leaves a partial output file, only spill temps
// that the next attempt truncates or removes — which is what makes
// cluster worker retries idempotent.
#pragma once

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "fleet/shard.h"
#include "fleet/wire.h"
#include "util/status.h"

namespace msamp::fleet {

class SpillSink final : public WindowSink {
 public:
  /// Total spill-buffer flush budget: bounds the sum of the in-RAM
  /// per-column buffers and the read buffer `finalize()` streams the
  /// spill files through.
  static constexpr std::size_t kDefaultChunkBytes = std::size_t{1} << 20;

  /// Streams `shard`'s windows toward `out_path`.  Spill temps live next
  /// to the output (`<out_path>.spill-*`) and are created on a column's
  /// first overflow, truncating any temp a crashed attempt left, so
  /// retries are idempotent.  Touches no file; throws
  /// std::invalid_argument on an invalid shard.
  SpillSink(const FleetConfig& config, ShardSpec shard, std::string out_path,
            std::size_t chunk_bytes = kDefaultChunkBytes);

  /// Removes the spill temps (never a finished output file).
  ~SpillSink() override;

  SpillSink(const SpillSink&) = delete;
  SpillSink& operator=(const SpillSink&) = delete;

  /// Windows must arrive in canonical order with no gaps (the runner
  /// guarantees this); anything else throws std::logic_error.  Throws
  /// std::runtime_error when an overflowing column's spill file cannot
  /// be opened.
  void on_window(std::size_t window, WindowRecords&& records) override;

  /// Writes the v6 file to `out_path` from the in-RAM head, the spill
  /// files and the never-spilled buffers, then deletes the temps.  Call
  /// once, after `run_fleet` completed the whole shard range (else
  /// std::logic_error).  Returns an error Status (with path and reason)
  /// on I/O failure.
  util::Status finalize();

  const std::string& out_path() const { return out_; }

 private:
  struct Spill {
    std::filesystem::path path;
    std::ofstream file;    ///< opened (trunc) by the first flush
    bool on_disk = false;  ///< the column overflowed into `path`
    wire::Writer buf;
  };

  /// One spill file per column of one v6 record section.
  struct SectionSpills {
    std::vector<Spill> cols;
    std::span<const std::size_t> widths;  ///< wire:: column byte widths
    std::uint64_t records = 0;
  };

  void name_section(SectionSpills& sec, const char* name,
                    std::span<const std::size_t> widths);
  void flush(Spill& s);
  /// The writer's source for one section: column c is spill file c,
  /// copied through a chunk_bytes_ buffer, or its buffer if it never
  /// spilled.
  wire::ColumnSource spilled(SectionSpills& sec);

  /// Everything but the server runs and bursts, exactly as DatasetBuilder
  /// would hold it.
  Dataset head_;
  std::string out_;
  std::size_t chunk_bytes_;
  std::size_t col_chunk_bytes_;
  SectionSpills servers_;
  SectionSpills bursts_;
  bool finalized_ = false;
};

}  // namespace msamp::fleet
