// SpillSink: the disk-backed WindowSink.  DatasetBuilder (fleet/shard.h)
// accumulates a whole shard's records in RAM before `Dataset::save`
// writes them out; SpillSink instead streams each completed window's
// server runs and bursts to per-COLUMN spill files as `run_fleet` hands
// them over (one spill per v6 column, so the final assembly is pure file
// concatenation).  Like `merge_shards`, it keeps only the small part of
// the day in RAM — the per-window count table, the rack runs (at most
// one per window), and at most two exemplars — so a generation process's
// peak RSS is a few spill-chunk buffers plus that, never the shard's
// records.  `finalize()` hands the spill files to the one v6 writer
// (fleet/wire.h), so its output is byte-identical to `DatasetBuilder` +
// `Dataset::save` by construction (tests/test_spill_sink.cc still
// byte-compares), written via the writer's atomic rename: a crashed or
// killed process never leaves a partial output file, only spill temps
// that the next attempt truncates — which is what makes cluster worker
// retries idempotent.
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
  /// to the output (`<out_path>.spill-*`); an existing temp from a
  /// crashed attempt is truncated, so retries are idempotent.  Throws
  /// std::invalid_argument on an invalid shard, std::runtime_error when
  /// the spill files cannot be opened.
  SpillSink(const FleetConfig& config, ShardSpec shard, std::string out_path,
            std::size_t chunk_bytes = kDefaultChunkBytes);

  /// Removes the spill temps (never a finished output file).
  ~SpillSink() override;

  SpillSink(const SpillSink&) = delete;
  SpillSink& operator=(const SpillSink&) = delete;

  /// Windows must arrive in canonical order with no gaps (the runner
  /// guarantees this); anything else throws std::logic_error.
  void on_window(std::size_t window, WindowRecords&& records) override;

  /// Writes the v6 file to `out_path` from the in-RAM head and the spill
  /// files, then deletes the temps.  Call once, after `run_fleet`
  /// completed the whole shard range (else std::logic_error).  Returns an
  /// error Status (with path and reason) on I/O failure.
  util::Status finalize();

  const std::string& out_path() const { return out_; }

 private:
  struct Spill {
    std::filesystem::path path;
    std::ofstream file;
    wire::Writer buf;
  };

  /// One spill file per column of one v6 record section.
  struct SectionSpills {
    std::vector<Spill> cols;
    std::span<const std::size_t> widths;  ///< wire:: column byte widths
    std::uint64_t records = 0;
  };

  void open_section(SectionSpills& sec, const char* name,
                    std::span<const std::size_t> widths);
  void flush(Spill& s);
  /// The writer's source for one spilled section: column c is spill
  /// file c, copied through a chunk_bytes_ buffer.
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
