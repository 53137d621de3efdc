#include "fleet/shard.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "analysis/rack_classify.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workload/diurnal.h"

namespace msamp::fleet {

std::vector<workload::RackMeta> fleet_racks(const FleetConfig& config) {
  util::Rng master(config.seed);
  std::vector<workload::RackMeta> racks;
  for (const auto region :
       {workload::RegionId::kRegA, workload::RegionId::kRegB}) {
    util::Rng place_rng = master.fork(static_cast<std::uint64_t>(region) + 7);
    const auto cfg = workload::default_placement(
        region, config.racks_per_region, config.servers_per_rack);
    auto region_racks = workload::generate_racks(
        cfg, static_cast<int>(racks.size()), place_rng);
    racks.insert(racks.end(), region_racks.begin(), region_racks.end());
  }
  return racks;
}

namespace {

/// `fleet_racks` distilled into serializable RackInfo records with the
/// classification fields zeroed: every shard carries this identical
/// table, which `merge_shards` validates.
std::vector<RackInfo> dataset_rack_table(const FleetConfig& config) {
  std::vector<RackInfo> out;
  for (const auto& rack : fleet_racks(config)) {
    RackInfo info;
    info.rack_id = static_cast<std::uint32_t>(rack.rack_id);
    info.region = static_cast<std::uint8_t>(rack.region);
    info.ml_dense = rack.ml_dense ? 1 : 0;
    info.distinct_tasks = static_cast<std::uint16_t>(rack.distinct_tasks());
    info.dominant_share = static_cast<float>(rack.dominant_share());
    info.intensity = static_cast<float>(rack.intensity);
    out.push_back(info);
  }
  return out;
}

}  // namespace

Dataset shard_head(const FleetConfig& config, ShardSpec shard) {
  if (!shard.valid()) {
    throw std::invalid_argument("invalid shard spec " +
                                std::to_string(shard.index) + "/" +
                                std::to_string(shard.count));
  }
  if (auto st = config.validate(); !st) {
    throw std::invalid_argument("invalid config: " + st.reason());
  }
  Dataset ds;
  ds.config = config;
  ds.fingerprint = config.fingerprint();
  ds.shard = shard;
  ds.racks = dataset_rack_table(config);
  const std::size_t total =
      ds.racks.size() * static_cast<std::size_t>(config.hours);
  ds.window_begin = shard.begin(total);
  ds.window_end = shard.end(total);
  const auto windows =
      static_cast<std::size_t>(ds.window_end - ds.window_begin);
  ds.window_counts.reserve(windows);
  ds.rack_runs.reserve(windows);
  return ds;
}

void append_window_head(Dataset& head, std::size_t window,
                        WindowRecords& records, const char* sink) {
  const std::size_t expected = head.window_begin + head.window_counts.size();
  if (window != expected || window >= head.window_end) {
    throw std::logic_error(std::string(sink) + ": window " +
                           std::to_string(window) + " out of order (expected " +
                           std::to_string(expected) + ")");
  }
  head.window_counts.push_back(records.counts());
  if (records.has_run) head.rack_runs.push_back(records.rack_run);
  // First qualifying window in canonical order wins, exactly as in a
  // serial hour-by-hour, rack-by-rack sweep.
  if ((records.exemplar_kind & kLowExemplar) != 0 &&
      head.low_contention_example.num_samples == 0) {
    head.low_contention_example = records.exemplar;
  }
  if ((records.exemplar_kind & kHighExemplar) != 0 &&
      head.high_contention_example.num_samples == 0) {
    head.high_contention_example = std::move(records.exemplar);
  }
}

DatasetBuilder::DatasetBuilder(const FleetConfig& config, ShardSpec shard)
    : ds_(shard_head(config, shard)) {
  ds_.server_runs.reserve(
      static_cast<std::size_t>(ds_.window_end - ds_.window_begin) *
      static_cast<std::size_t>(config.servers_per_rack));
}

void DatasetBuilder::on_window(std::size_t window, WindowRecords&& records) {
  append_window_head(ds_, window, records, "DatasetBuilder");
  ds_.server_runs.insert(ds_.server_runs.end(), records.server_runs.begin(),
                         records.server_runs.end());
  ds_.bursts.insert(ds_.bursts.end(), records.bursts.begin(),
                    records.bursts.end());
}

Dataset DatasetBuilder::take() {
  if (ds_.window_counts.size() !=
      static_cast<std::size_t>(ds_.window_end - ds_.window_begin)) {
    throw std::logic_error("DatasetBuilder: take() before the shard's "
                           "window range completed");
  }
  if (ds_.shard.full_range()) finalize_classification(ds_);
  return std::move(ds_);
}

void finalize_classification(Dataset& ds) {
  // Busy-hour classification (RegA bimodal split, §7.1).
  for (auto& info : ds.racks) {
    const auto busy_run = [&](const RackRunRecord& rr) {
      return rr.rack_id == info.rack_id &&
             rr.hour == static_cast<std::uint8_t>(workload::kBusyHour);
    };
    // Adding 0.0 for filtered-out runs leaves the fold bytes unchanged
    // (IEEE: x + 0.0 == x for the non-negative contention values).
    const double sum =
        util::canonical_sum_over(ds.rack_runs, [&](const RackRunRecord& rr) {
          return busy_run(rr) ? static_cast<double>(rr.avg_contention) : 0.0;
        });
    int n = 0;
    for (const auto& rr : ds.rack_runs) {
      if (busy_run(rr)) ++n;
    }
    info.busy_hour_avg_contention =
        n > 0 ? static_cast<float>(sum / n) : 0.0f;
    info.rack_class = static_cast<std::uint8_t>(analysis::classify_rack(
        static_cast<workload::RegionId>(info.region),
        info.busy_hour_avg_contention, ds.config.classify));
  }
}

}  // namespace msamp::fleet
