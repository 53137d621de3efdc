// Trace import/export: SyncMillisampler runs as portable CSV.
//
// The paper's authors released their (anonymized) dataset; this module lets
// the analysis pipeline ingest externally collected per-server bucket
// series (and export simulated ones in the same schema), decoupling the
// §5-§8 analyses from the simulator.
//
// Schema (one file per sync run):
//   # msamp-sync-trace v1 interval_ns=<int> grid_start_ns=<int>
//   server,sample,in_bytes,in_retx_bytes,out_bytes,out_retx_bytes,
//       in_ecn_bytes,connections            (one header row, 8 columns)
//   0,0,1048576,0,32768,0,0,12.5
//   ...
// Rows may omit all-zero samples; series lengths are implied by the max
// sample index seen (plus explicit rows), and every server listed in at
// least one row gets a full-length series.
//
// The reader fails closed: a space or the end of the line follows each
// header value; server ids must be dense from 0; no (server, sample) cell
// appears in two rows, as the writer never writes one twice; in each row
// exactly one comma follows each of the seven integer fields, the five
// byte counters are in [0, kMaxTraceBytes], and `connections` is finite,
// >= 0 and ends the line; and servers x samples may not exceed
// kMaxTraceCells (2^22 cells, 192 MiB of samples; 23x the paper's
// 92-server x 2,000-sample run, and room for 92 x 45,000), which is
// checked before the series are allocated.  The byte bound is 2^40
// (1.1 TB in one sample): 2^22 cells x 2^40 = 2^62, so no sum of a counter
// over a trace can overflow the analyses' int64 tallies.  Traces the
// writer makes stay far below it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "core/sync_controller.h"

namespace msamp::analysis {

/// The most servers x samples cells a trace may hold.
inline constexpr std::size_t kMaxTraceCells = std::size_t{1} << 22;

/// The largest byte counter one sample of a trace may carry.
inline constexpr std::int64_t kMaxTraceBytes = std::int64_t{1} << 40;

/// Writes `run` as CSV.  All-zero samples are skipped (sparse encoding).
void write_sync_trace(const core::SyncRun& run, std::ostream& os);

/// Convenience: writes to `path`, creating parent directories.
bool write_sync_trace_file(const core::SyncRun& run, const std::string& path);

/// Parses a trace produced by `write_sync_trace` (or hand-authored in the
/// same schema).  Returns nullopt on malformed input, on a repeated cell,
/// on a byte counter over kMaxTraceBytes and on a trace over
/// kMaxTraceCells.  Servers appear in first-row order; missing samples are
/// zero.
std::optional<core::SyncRun> read_sync_trace(std::istream& is);

/// Convenience: reads from `path`.
std::optional<core::SyncRun> read_sync_trace_file(const std::string& path);

}  // namespace msamp::analysis
