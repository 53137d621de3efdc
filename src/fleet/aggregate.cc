#include "fleet/aggregate.h"

#include <algorithm>
#include <cstdint>

namespace msamp::fleet {
namespace {

// A flag byte is set when it is nonzero, here and in every tally below: a
// file may hold any byte there, and a flag counts one burst at most.
bool passes(const BurstColumns& bursts, std::size_t i, BurstFilter filter) {
  switch (filter) {
    case BurstFilter::kAll:
      return true;
    case BurstFilter::kContended:
      return bursts.contended[i] != 0;
    case BurstFilter::kNonContended:
      return bursts.contended[i] == 0;
  }
  return true;
}

// burst_class with a one-entry memo keyed on (region, rack id).  A window's
// bursts are stored together and share its rack, so a scan hashes a rack
// once per run of its bursts, not once per burst.  Exact for any file: it
// skips only a lookup whose key equals the previous one.
class ClassMemo {
 public:
  explicit ClassMemo(const ClassMap& classes) : classes_(classes) {}

  analysis::RackClass operator()(std::uint8_t region, std::uint32_t rack_id) {
    if (!valid_ || region != region_ || rack_id != rack_id_) {
      class_ = burst_class(region, rack_id, classes_);
      region_ = region;
      rack_id_ = rack_id;
      valid_ = true;
    }
    return class_;
  }

 private:
  const ClassMap& classes_;
  bool valid_ = false;
  std::uint8_t region_ = 0;
  std::uint32_t rack_id_ = 0;
  analysis::RackClass class_ = analysis::RackClass::kRegATypical;
};

// The bin of an average connection count among `bins` bins of `bin_width`:
// NaN and negative counts go in the first bin and counts past the last
// bin's edge in the last, as loss_by_length clamps lengths.  The integer
// cast only sees counts inside the bins, below 2^62.
std::size_t connection_bin(float conns, int bin_width, std::size_t bins) {
  if (!(conns >= 0.0f)) return 0;
  if (!(conns < static_cast<double>(bins) * bin_width)) return bins - 1;
  const auto bin = static_cast<std::int64_t>(conns) / bin_width;
  return std::min(static_cast<std::size_t>(bin), bins - 1);
}

}  // namespace

ClassMap build_class_map(const DatasetView& view) {
  const RackInfoColumns& racks = view.racks();
  ClassMap out;
  out.reserve(racks.size());
  for (std::size_t i = 0; i < racks.size(); ++i) {
    out[racks.rack_id[i]] =
        static_cast<analysis::RackClass>(racks.rack_class[i]);
  }
  return out;
}

analysis::RackClass burst_class(std::uint8_t region, std::uint32_t rack_id,
                                const ClassMap& classes) {
  if (region == static_cast<std::uint8_t>(workload::RegionId::kRegB)) {
    return analysis::RackClass::kRegB;
  }
  const auto it = classes.find(rack_id);
  return it == classes.end() ? analysis::RackClass::kRegATypical : it->second;
}

std::array<ClassBurstStats, analysis::kNumRackClasses> table2_summary(
    const DatasetView& view, const ClassMap& classes) {
  const BurstColumns& bursts = view.bursts();
  std::array<ClassBurstStats, analysis::kNumRackClasses> out{};
  ClassMemo class_of(classes);
  for (std::size_t i = 0; i < bursts.size(); ++i) {
    const auto cls = class_of(bursts.region[i], bursts.rack_id[i]);
    auto& stats = out[static_cast<std::size_t>(cls)];
    ++stats.bursts;
    stats.contended += bursts.contended[i] != 0;
    stats.lossy += bursts.lossy[i] != 0;
  }
  return out;
}

std::vector<LossBucket> loss_by_contention(const DatasetView& view,
                                           const ClassMap& classes,
                                           analysis::RackClass rack_class,
                                           int bin_width, int max_contention) {
  const int bins = std::max(1, max_contention / std::max(bin_width, 1));
  std::vector<LossBucket> out(static_cast<std::size_t>(bins));
  for (int b = 0; b < bins; ++b) {
    out[static_cast<std::size_t>(b)].lo = b * bin_width;
    out[static_cast<std::size_t>(b)].hi = (b + 1) * bin_width;
  }
  const BurstColumns& bursts = view.bursts();
  ClassMemo class_of(classes);
  for (std::size_t i = 0; i < bursts.size(); ++i) {
    if (class_of(bursts.region[i], bursts.rack_id[i]) != rack_class) {
      continue;
    }
    const int bin =
        std::min(bursts.max_contention[i] / bin_width, bins - 1);
    auto& bucket = out[static_cast<std::size_t>(bin)];
    ++bucket.bursts;
    bucket.lossy += bursts.lossy[i] != 0;
  }
  return out;
}

std::vector<LossBucket> loss_by_length(const DatasetView& view,
                                       const ClassMap& classes,
                                       analysis::RackClass rack_class,
                                       BurstFilter filter, int max_len_ms) {
  std::vector<LossBucket> out(static_cast<std::size_t>(std::max(max_len_ms, 1)));
  for (int len = 1; len <= max_len_ms; ++len) {
    out[static_cast<std::size_t>(len - 1)].lo = len;
    out[static_cast<std::size_t>(len - 1)].hi = len + 1;
  }
  const BurstColumns& bursts = view.bursts();
  ClassMemo class_of(classes);
  for (std::size_t i = 0; i < bursts.size(); ++i) {
    if (class_of(bursts.region[i], bursts.rack_id[i]) != rack_class ||
        !passes(bursts, i, filter)) {
      continue;
    }
    const int len = std::clamp<int>(bursts.len_ms[i], 1, max_len_ms);
    auto& bucket = out[static_cast<std::size_t>(len - 1)];
    ++bucket.bursts;
    bucket.lossy += bursts.lossy[i] != 0;
  }
  return out;
}

std::vector<LossBucket> loss_by_connections(const DatasetView& view,
                                            const ClassMap& classes,
                                            analysis::RackClass rack_class,
                                            BurstFilter filter, int bin_width,
                                            int num_bins) {
  std::vector<LossBucket> out(static_cast<std::size_t>(std::max(num_bins, 1)));
  for (int b = 0; b < num_bins; ++b) {
    out[static_cast<std::size_t>(b)].lo = b * bin_width;
    out[static_cast<std::size_t>(b)].hi = (b + 1) * bin_width;
  }
  const BurstColumns& bursts = view.bursts();
  ClassMemo class_of(classes);
  for (std::size_t i = 0; i < bursts.size(); ++i) {
    if (class_of(bursts.region[i], bursts.rack_id[i]) != rack_class ||
        !passes(bursts, i, filter)) {
      continue;
    }
    auto& bucket =
        out[connection_bin(bursts.avg_conns[i], bin_width, out.size())];
    ++bucket.bursts;
    bucket.lossy += bursts.lossy[i] != 0;
  }
  return out;
}

std::vector<double> busy_hour_contention(const DatasetView& view,
                                         workload::RegionId region,
                                         int busy_hour) {
  const RackRunColumns& runs = view.rack_runs();
  std::vector<double> out;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs.region[i] == static_cast<std::uint8_t>(region) &&
        runs.hour[i] == busy_hour) {
      out.push_back(runs.avg_contention[i]);
    }
  }
  return out;
}

}  // namespace msamp::fleet
