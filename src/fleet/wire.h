// Internal wire-format code for the dataset file format, and its one
// writer.  `write_v6` / `v6_blob` own the whole v6 layout — header,
// window directory, rack table, the three record sections, the zero
// padding between columns, the exemplars, the final size check, and the
// temp-file-plus-rename — and `Dataset::serialize`/`save`
// (fleet/dataset.cc), `fleet::SpillSink::finalize` (fleet/spill_sink.cc)
// and `fleet::merge_shards` (fleet/merge.cc) are its only callers.  Each
// caller supplies only where its server-run and burst columns come from:
// in-RAM vectors, one spill file per column, or the shards' mapped
// column spans.  Identical bytes across the three are structural.
//
// v6 is columnar: the file is a fixed header plus six sections (window
// directory, racks, rack runs, server runs, bursts, exemplars).  Each
// record section stores one page-aligned, fixed-width little-endian column
// per field, so `Dataset::open_mapped` can hand out typed spans straight
// over the mapping — zero copies, bounded RSS — while the window directory
// (per-window counts plus running record offsets) gives O(1) window
// slicing.  The record sections' columns are listed once, in
// fleet/column_table.h.  Every column value is written member by member:
// the file never contains compiler-inserted padding, which is what lets
// shards generated in different processes merge into bytes identical to a
// single-process run.  Gap bytes between columns are always zero.
//
// This header is wire-format code for msamp_lint purposes: whole-struct
// `sizeof(<RecordType>)` copies are banned here exactly as in dataset.cc
// (the codec templates' `sizeof(T)` is guarded by the static_asserts).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "fleet/column_table.h"
#include "fleet/dataset.h"
#include "util/status.h"

namespace msamp::fleet::wire {

inline constexpr std::uint32_t kMagic = 0x4d464c54;  // "MFLT"
// Wire-format version.  Bump whenever the serialized layout changes (new
// fields, reordered fields, record shape changes): old cache files then
// fail to parse and are regenerated.  v6: columnar sections with
// page-aligned columns and a per-window directory.  Any other version —
// including the retired v4/v5 row layouts — is rejected as unsupported.
inline constexpr std::uint32_t kVersion = 6;

/// Every column starts on a page boundary: mmap'd spans are naturally
/// aligned for their element type and readahead streams whole columns.
inline constexpr std::uint64_t kSegmentAlign = 4096;

static_assert(kSegmentAlign % kMaxColumnAlign == 0,
              "page-aligned columns must imply element alignment");

constexpr std::uint64_t align_segment(std::uint64_t off) {
  return (off + kSegmentAlign - 1) / kSegmentAlign * kSegmentAlign;
}

struct Writer {
  std::vector<std::uint8_t> out;
  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(!std::is_class_v<T>, "serialize records field by field");
    const auto old = out.size();
    out.resize(old + sizeof(T));
    std::memcpy(out.data() + old, &v, sizeof(T));
  }
  template <typename T>
  void put_vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T> && !std::is_class_v<T>);
    put(static_cast<std::uint64_t>(v.size()));
    const auto old = out.size();
    out.resize(old + v.size() * sizeof(T));
    if (!v.empty()) std::memcpy(out.data() + old, v.data(), v.size() * sizeof(T));
  }
};

/// Bounds-checked reader over a byte range (a whole serialized blob, or
/// one section of a mapped file).
struct Reader {
  Reader(const std::uint8_t* bytes, std::size_t count)
      : data(bytes), size(count) {}
  explicit Reader(const std::vector<std::uint8_t>& blob)
      : data(blob.data()), size(blob.size()) {}
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;
  template <typename T>
  bool get(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(!std::is_class_v<T>, "deserialize records field by field");
    if (pos + sizeof(T) > size) return false;
    std::memcpy(v, data + pos, sizeof(T));
    pos += sizeof(T);
    return true;
  }
  template <typename T>
  bool get_vec(std::vector<T>* v) {
    std::uint64_t n = 0;
    if (!get(&n)) return false;
    if (n > (size - pos) / sizeof(T)) return false;
    v->resize(static_cast<std::size_t>(n));
    if (n != 0) {
      std::memcpy(v->data(), data + pos,
                  static_cast<std::size_t>(n) * sizeof(T));
      pos += static_cast<std::size_t>(n) * sizeof(T);
    }
    return true;
  }
  std::size_t remaining() const { return size - pos; }
};

// --- v6 columnar layout ------------------------------------------------

/// v6 sections, in file order.
enum Section : std::size_t {
  kSecWindows = 0,   ///< per-window counts + running record offsets
  kSecRacks = 1,     ///< RackInfo columns (full rack table, every shard)
  kSecRackRuns = 2,  ///< RackRunRecord columns
  kSecServerRuns = 3,  ///< ServerRunRecord columns
  kSecBursts = 4,    ///< BurstRecord columns
  kSecExemplars = 5,  ///< two row-encoded ExemplarRun payloads (tiny)
  kNumSections = 6,
};

// Column byte widths of the window directory: has_run u8, server_runs
// u32, bursts u32, then the shard-local running record offsets
// run_off/server_off/burst_off u64 (prefix sums of the counts; first
// window is 0), which give O(1) window slicing.  The record sections'
// widths derive from their column tables (fleet/column_table.h).
inline constexpr std::size_t kWindowDirWidths[] = {1, 4, 4, 8, 8, 8};

/// Record counts that fully determine a v6 file's layout (plus the byte
/// length of the row-encoded exemplar section, which is data-dependent).
struct SectionCounts {
  std::uint64_t windows = 0;
  std::uint64_t racks = 0;
  std::uint64_t rack_runs = 0;
  std::uint64_t server_runs = 0;
  std::uint64_t bursts = 0;
  std::uint64_t exemplar_bytes = 0;
};

/// One section-directory entry: absolute offset of the section's first
/// column and total section bytes (last column end minus first offset).
struct SectionExtent {
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
};

/// The complete byte layout of a v6 file, derived deterministically from
/// the section counts: column offsets are assigned in section/field order,
/// each aligned up to kSegmentAlign.
struct V6Layout {
  std::uint64_t header_bytes = 0;
  std::array<std::vector<std::uint64_t>, kNumSections> columns;
  std::array<SectionExtent, kNumSections> dir{};
  std::uint64_t file_bytes = 0;
};

/// Size of the fixed v6 prefix: magic, version, fingerprint, config,
/// shard index/count, window range, four record-count u64s, and the
/// section directory (measured by writing one).
std::size_t header_bytes_v6();

/// Serialized size of the FleetConfig codec.
std::size_t config_wire_size();

V6Layout v6_layout(const SectionCounts& counts);

/// Everything in the fixed v6 prefix.  `counts.exemplar_bytes` mirrors
/// `dir[kSecExemplars].bytes` (the count fields on the wire are only the
/// four record counts; the window count is `window_end - window_begin`).
struct V6Header {
  std::uint64_t fingerprint = 0;
  FleetConfig config;
  ShardSpec shard;
  std::uint64_t window_begin = 0;
  std::uint64_t window_end = 0;
  SectionCounts counts;
  std::array<SectionExtent, kNumSections> dir{};
};

/// Parses and validates a v6 fixed prefix from the first `available` bytes
/// of a file whose total size is `file_size`.  On success fills `h` and
/// `layout` (recomputed from the counts) after checking: magic/version
/// (anything but v6 is an "unsupported dataset version"), config decode,
/// a canonical shard window range, a complete rack table
/// (2 * racks_per_region entries), directory == recomputed layout, and
/// `file_size` == layout end.  The error Status carries the failing byte
/// offset; the caller attaches the path.
util::Status read_header_v6(const std::uint8_t* data, std::size_t available,
                            std::uint64_t file_size, V6Header* h,
                            V6Layout* layout);

/// FleetConfig travels with the dataset so a merge (and `report`/`query`)
/// can see the scale and classification knobs without re-supplying them.
/// `threads` is deliberately not serialized: it is execution detail,
/// never data.  `get_config` fails on a short read and on a decoded
/// config that FleetConfig::validate() rejects.
void put_config(Writer& w, const FleetConfig& c);
util::Status get_config(Reader& r, FleetConfig* c);

void put_exemplar(Writer& w, const ExemplarRun& e);
bool get_exemplar(Reader& r, ExemplarRun* e);

// --- the v6 writer ------------------------------------------------------

/// Forward-only byte output of the writer.  Field values go into `w`
/// followed by `flush_if_full()`; runs of raw column bytes (spill-file
/// chunks, mapped shard spans) go through `write`.  Without a file, `w.out`
/// is the whole blob; with one, `w` is a staging buffer of about
/// kOutChunk bytes and `flushed` counts what already reached the file.
struct Out {
  static constexpr std::size_t kOutChunk = std::size_t{1} << 20;

  Writer w;
  std::ofstream* file = nullptr;
  std::uint64_t flushed = 0;

  /// Absolute offset of the next byte.
  std::uint64_t pos() const { return flushed + w.out.size(); }
  void flush();
  void flush_if_full() {
    if (file != nullptr && w.out.size() >= kOutChunk) flush();
  }
  void write(const void* data, std::size_t bytes);
  /// Zero bytes up to the absolute offset `target`: the one gap filler
  /// between v6 columns (aborts on a backward pad — writer and layout
  /// arithmetic disagreeing must never ship).
  void pad_to(std::uint64_t target);
};

/// A bulky record section (server runs or bursts) as the writer pulls
/// it: `records` records, and `put(col, out)` appends exactly
/// `records * width[col]` bytes of column `col` to `out`, or returns an
/// error Status naming what it failed to read.
struct ColumnSource {
  std::uint64_t records = 0;
  std::function<util::Status(std::size_t col, Out& out)> put;
};

/// Appends column `c` of `records` to `w`: the c-th field of each record,
/// in record order.
template <typename Rec>
void put_column(Writer& w, std::span<const Rec> records, std::size_t c) {
  if (c >= kWidths<Rec>.size()) std::abort();
  for_each_column<Rec>([&](auto col, std::size_t i) {
    if (i != c) return;
    const std::size_t old = w.out.size();
    w.out.resize(old + records.size() * col.width);
    std::uint8_t* dst = w.out.data() + old;
    for (const Rec& r : records) {
      std::memcpy(dst, &(r.*col.field), col.width);
      dst += col.width;
    }
  });
}

/// The ColumnSource over records held in RAM; `records` must outlive it.
template <typename Rec>
ColumnSource rows(const std::vector<Rec>& records) {
  return {records.size(), [&records](std::size_t c, Out& out) {
            // Batches keep a file writer's staging buffer near kOutChunk.
            constexpr std::size_t kBatch = std::size_t{1} << 14;
            const std::span<const Rec> all(records);
            for (std::size_t i = 0; i < all.size(); i += kBatch) {
              const std::size_t n = std::min(kBatch, all.size() - i);
              put_column(out.w, all.subspan(i, n), c);
              out.flush_if_full();
            }
            return util::Status::ok();
          }};
}

/// Writes one v6 file to `path` through `<path>.tmp` and an atomic
/// rename, creating the parent directory.  `head` supplies the header
/// (fingerprint, config, shard, window range), the window counts, the
/// rack table, the rack runs and the exemplars; the server runs and
/// bursts come from the two sources (head's own vectors are not read).
/// On any failure the temp file is removed and `path` is untouched.
util::Status write_v6(const Dataset& head, const ColumnSource& server_runs,
                      const ColumnSource& bursts, const std::string& path);

/// The same layout, returned as an in-memory blob.
std::vector<std::uint8_t> v6_blob(const Dataset& head,
                                  const ColumnSource& server_runs,
                                  const ColumnSource& bursts);

}  // namespace msamp::fleet::wire
