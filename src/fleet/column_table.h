// The v6 record sections, written down once.
//
// Each record section of a v6 file (racks, rack runs, server runs,
// bursts) stores one fixed-width column per record field.  `Table<Rec>`
// lists them in file order, pairing each record field with the
// DatasetView span that maps it.  The column widths, the column writer
// (`put_column`, fleet/wire.h), the spans over a mapping, row
// materialization, window slices and the raw column bytes `merge_shards`
// concatenates all derive from it.  Adding a column takes one table entry
// plus its two declarations: the record field (fleet/dataset.h) and its
// span (fleet/dataset_view.h).  The window directory is not here: three
// of its six columns are prefix sums the writer computes (fleet/wire.cc).
//
// Wire-format code for msamp_lint purposes, like wire.h: whole-struct
// `sizeof(<RecordType>)` copies are banned here.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "fleet/dataset.h"
#include "fleet/dataset_view.h"

namespace msamp::fleet::wire {

/// Widest column element the v6 format stores (u64/i64/double). A typed
/// span over a mapped column must be aligned for its element type, so
/// column offsets — and the mapping base — are at least this aligned;
/// DatasetView::init rejects a misaligned base with a util::Status instead
/// of handing out UB spans.
inline constexpr std::uint64_t kMaxColumnAlign = 8;
static_assert(kMaxColumnAlign >= alignof(double) &&
                  kMaxColumnAlign >= alignof(std::uint64_t),
              "kMaxColumnAlign must cover the widest column element");

/// The class and the type of a pointer to data member.
template <typename M>
struct MemberOf;
template <typename C, typename M>
struct MemberOf<M C::*> {
  using Class = C;
  using Type = M;
};

/// One column: a record field and the span that maps it.
template <auto RecordField, auto ColumnSpan>
struct Column {
  using T = typename MemberOf<decltype(RecordField)>::Type;
  static_assert(std::is_same_v<typename MemberOf<decltype(ColumnSpan)>::Type,
                               std::span<const T>>,
                "a record field and its column span must hold the same type");
  static_assert(std::is_arithmetic_v<T>, "v6 columns hold scalars");
  static constexpr auto field = RecordField;
  static constexpr auto span = ColumnSpan;
  static constexpr std::size_t width = sizeof(T);
};

/// The columns of one record section, in file order (`R` names the
/// record, `C` its column struct).
template <typename Rec>
struct Table;

template <>
struct Table<RackInfo> {
  using R = RackInfo;
  using C = RackInfoColumns;
  static constexpr std::tuple columns{
      Column<&R::rack_id, &C::rack_id>{},
      Column<&R::region, &C::region>{},
      Column<&R::ml_dense, &C::ml_dense>{},
      Column<&R::distinct_tasks, &C::distinct_tasks>{},
      Column<&R::dominant_share, &C::dominant_share>{},
      Column<&R::intensity, &C::intensity>{},
      Column<&R::busy_hour_avg_contention, &C::busy_hour_avg_contention>{},
      Column<&R::rack_class, &C::rack_class>{},
  };
};

template <>
struct Table<RackRunRecord> {
  using R = RackRunRecord;
  using C = RackRunColumns;
  static constexpr std::tuple columns{
      Column<&R::rack_id, &C::rack_id>{},
      Column<&R::region, &C::region>{},
      Column<&R::hour, &C::hour>{},
      Column<&R::usable, &C::usable>{},
      Column<&R::avg_contention, &C::avg_contention>{},
      Column<&R::min_active_contention, &C::min_active_contention>{},
      Column<&R::p90_contention, &C::p90_contention>{},
      Column<&R::max_contention, &C::max_contention>{},
      Column<&R::in_bytes, &C::in_bytes>{},
      Column<&R::drop_bytes, &C::drop_bytes>{},
      Column<&R::ecn_bytes, &C::ecn_bytes>{},
  };
};

template <>
struct Table<ServerRunRecord> {
  using R = ServerRunRecord;
  using C = ServerRunColumns;
  static constexpr std::tuple columns{
      Column<&R::rack_id, &C::rack_id>{},
      Column<&R::region, &C::region>{},
      Column<&R::hour, &C::hour>{},
      Column<&R::bursty, &C::bursty>{},
      Column<&R::avg_util, &C::avg_util>{},
      Column<&R::util_inside, &C::util_inside>{},
      Column<&R::util_outside, &C::util_outside>{},
      Column<&R::bursts_per_sec, &C::bursts_per_sec>{},
      Column<&R::conns_inside, &C::conns_inside>{},
      Column<&R::conns_outside, &C::conns_outside>{},
  };
};

template <>
struct Table<BurstRecord> {
  using R = BurstRecord;
  using C = BurstColumns;
  static constexpr std::tuple columns{
      Column<&R::rack_id, &C::rack_id>{},
      Column<&R::region, &C::region>{},
      Column<&R::hour, &C::hour>{},
      Column<&R::len_ms, &C::len_ms>{},
      Column<&R::volume_bytes, &C::volume_bytes>{},
      Column<&R::max_contention, &C::max_contention>{},
      Column<&R::avg_conns, &C::avg_conns>{},
      Column<&R::contended, &C::contended>{},
      Column<&R::lossy, &C::lossy>{},
  };
};

/// The record type a column struct's `operator[]` materializes.
template <typename Cols>
using RecordOf = decltype(std::declval<const Cols&>()[std::size_t{0}]);

/// Calls `fn(column, index)` for every column of `Rec`'s section, in file
/// order.
template <typename Rec, typename Fn>
void for_each_column(Fn&& fn) {
  std::apply(
      [&fn](auto... col) {
        std::size_t c = 0;
        (fn(col, c++), ...);
      },
      Table<Rec>::columns);
}

/// Column byte widths of `Rec`'s section, in file order.
template <typename Rec>
inline constexpr auto kWidths = std::apply(
    [](auto... col) { return std::array{col.width...}; }, Table<Rec>::columns);

/// A typed span over `count` values at `offset` bytes past `base`.  Column
/// offsets are kSegmentAlign-aligned and DatasetView::init rejects a base
/// that is not kMaxColumnAlign-aligned, so the span is aligned for T, as
/// reading a T through it requires.
template <typename T>
std::span<const T> col_span(const std::uint8_t* base, std::uint64_t offset,
                            std::uint64_t count) {
  static_assert(alignof(T) <= kMaxColumnAlign,
                "column element alignment exceeds the v6 guarantee");
  static_assert(std::is_trivially_copyable_v<T>);
  return {reinterpret_cast<const T*>(base + offset),
          static_cast<std::size_t>(count)};
}

/// The spans of one section over a validated mapping: `count` records per
/// column, column c starting `offsets[c]` bytes past `base`.
template <typename Cols>
Cols map_columns(const std::uint8_t* base,
                 std::span<const std::uint64_t> offsets, std::uint64_t count) {
  Cols cols;
  for_each_column<RecordOf<Cols>>([&](auto col, std::size_t c) {
    cols.*col.span = col_span<typename decltype(col)::T>(base, offsets[c],
                                                         count);
  });
  return cols;
}

/// Record `i` of `cols`, materialized field by field.
template <typename Cols>
RecordOf<Cols> row(const Cols& cols, std::size_t i) {
  RecordOf<Cols> r;
  for_each_column<RecordOf<Cols>>(
      [&](auto col, std::size_t) { r.*col.field = (cols.*col.span)[i]; });
  return r;
}

/// Every record of `cols`, materialized.
template <typename Cols>
std::vector<RecordOf<Cols>> to_rows(const Cols& cols) {
  std::vector<RecordOf<Cols>> rows;
  rows.reserve(cols.size());
  for (std::size_t i = 0; i < cols.size(); ++i) rows.push_back(row(cols, i));
  return rows;
}

/// Records [off, off + n) of every column of `cols`.
template <typename Cols>
Cols slice(const Cols& cols, std::size_t off, std::size_t n) {
  Cols s;
  for_each_column<RecordOf<Cols>>([&](auto col, std::size_t) {
    s.*col.span = (cols.*col.span).subspan(off, n);
  });
  return s;
}

/// Raw bytes of column `c` of `cols`.
template <typename Cols>
std::span<const std::byte> column_bytes(const Cols& cols, std::size_t c) {
  std::span<const std::byte> bytes;
  for_each_column<RecordOf<Cols>>([&](auto col, std::size_t i) {
    if (i == c) bytes = std::as_bytes(cols.*col.span);
  });
  return bytes;
}

}  // namespace msamp::fleet::wire
