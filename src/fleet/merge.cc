#include "fleet/merge.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>

#include "fleet/dataset_view.h"
#include "fleet/shard.h"
#include "fleet/wire.h"

namespace msamp::fleet {
namespace {

bool same_rack_info(const RackInfo& a, const RackInfo& b) {
  // Classification fields are intentionally excluded: shards leave them
  // zeroed, and a full-range dataset passed to a single-shard merge has
  // them filled; the merge recomputes them either way.
  return a.rack_id == b.rack_id && a.region == b.region &&
         a.ml_dense == b.ml_dense && a.distinct_tasks == b.distinct_tasks &&
         a.dominant_share == b.dominant_share && a.intensity == b.intensity;
}

}  // namespace

util::Status merge_shards(const std::vector<std::string>& paths,
                          const std::string& out_path, MergeStats* stats) {
  if (paths.empty()) return util::Status::error("no shards to merge");

  // Map every shard read-only.  DatasetView::open already validates the
  // header, layout, and window-directory tie-out of each file.
  std::vector<DatasetView> shards(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (auto st = DatasetView::open(paths[i], &shards[i]); !st) return st;
  }
  std::sort(shards.begin(), shards.end(),
            [](const DatasetView& a, const DatasetView& b) {
              return a.shard().index < b.shard().index;
            });

  const DatasetView& first = shards.front();
  const std::uint32_t count = first.shard().count;
  if (shards.size() != count) {
    return util::Status::error(
        "expected " + std::to_string(count) + " shards (from shard " +
        std::to_string(first.shard().index) + "'s header), got " +
        std::to_string(shards.size()));
  }
  const std::uint64_t total = first.total_windows();
  const std::vector<RackInfo> first_racks = first.rack_table();

  std::uint64_t n_runs = 0, n_servers = 0, n_bursts = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const DatasetView& s = shards[i];
    const std::string who = "shard " + std::to_string(s.shard().index) + "/" +
                            std::to_string(s.shard().count);
    if (s.shard().count != count) {
      return util::Status::error(
          who + ": shard count disagrees with shard " +
              std::to_string(first.shard().index) + "/" +
              std::to_string(count),
          s.path());
    }
    if (s.shard().index != i) {
      if (i > 0 && s.shard().index == shards[i - 1].shard().index) {
        return util::Status::error("duplicate shard " +
                                       std::to_string(s.shard().index) + "/" +
                                       std::to_string(count),
                                   s.path());
      }
      return util::Status::error(
          "missing shard " + std::to_string(i) + "/" + std::to_string(count));
    }
    const std::string field(s.config().differing_field(first.config()));
    if (s.fingerprint() != first.fingerprint() || !field.empty()) {
      return util::Status::error(
          who + ": fingerprint or config mismatch" +
              (field.empty() ? "" : " in " + field) +
              " (generated from a different config, seed, or model version)",
          s.path());
    }
    const auto racks = s.rack_table();
    if (racks.size() != first_racks.size() ||
        !std::equal(racks.begin(), racks.end(), first_racks.begin(),
                    same_rack_info)) {
      return util::Status::error(
          who + ": rack table differs from shard " +
              std::to_string(first.shard().index) + "'s",
          s.path());
    }
    n_runs += s.rack_runs().size();
    n_servers += s.server_runs().size();
    n_bursts += s.bursts().size();
  }

  // Head of the merged day: the window counts and rack runs are bounded
  // by a few bytes per window, so folding them in memory keeps the merge's
  // footprint small while letting classification run exactly as it does
  // in DatasetBuilder::take.
  Dataset head;
  head.fingerprint = first.fingerprint();
  head.config = first.config();
  head.shard = ShardSpec{};  // full range
  head.window_begin = 0;
  head.window_end = total;
  head.racks = first_racks;
  head.window_counts.reserve(static_cast<std::size_t>(total));
  head.rack_runs.reserve(static_cast<std::size_t>(n_runs));
  for (const DatasetView& s : shards) {
    const WindowDirColumns& w = s.windows();
    for (std::size_t i = 0; i < w.size(); ++i) {
      head.window_counts.push_back(
          {w.has_run[i], w.server_runs[i], w.bursts[i]});
    }
    for (std::size_t i = 0; i < s.rack_runs().size(); ++i) {
      head.rack_runs.push_back(s.rack_runs()[i]);
    }
  }
  finalize_classification(head);

  // Shards are canonical-order slices, so the first shard holding an
  // exemplar holds the globally first qualifying window.
  const auto first_exemplar = [](ExemplarRun& kept, const ExemplarRun& e) {
    if (kept.num_samples == 0 && e.num_samples != 0) kept = e;
  };
  for (const DatasetView& s : shards) {
    first_exemplar(head.low_contention_example, s.low_contention_example());
    first_exemplar(head.high_contention_example, s.high_contention_example());
  }

  // The bulky sections: each merged column is the concatenation of the
  // shards' columns, copied straight from the mappings.
  const auto concat = [&shards](std::uint64_t records, auto columns_of) {
    return wire::ColumnSource{
        records, [&shards, columns_of](std::size_t col, wire::Out& out) {
          for (const DatasetView& s : shards) {
            const auto bytes = wire::column_bytes(columns_of(s), col);
            out.write(bytes.data(), bytes.size());
          }
          return util::Status::ok();
        }};
  };
  if (auto st = wire::write_v6(
          head,
          concat(n_servers,
                 [](const DatasetView& s) { return s.server_runs(); }),
          concat(n_bursts, [](const DatasetView& s) { return s.bursts(); }),
          out_path);
      !st) {
    return st;
  }
  if (stats != nullptr) {
    stats->fingerprint = first.fingerprint();
    stats->config = first.config();
    stats->shards = count;
    stats->windows = total;
    stats->rack_runs = n_runs;
    stats->server_runs = n_servers;
    stats->bursts = n_bursts;
    std::error_code ec;
    stats->bytes_written = std::filesystem::file_size(out_path, ec);
  }
  return util::Status::ok();
}

}  // namespace msamp::fleet
