#include "fleet/dataset.h"

#include "fleet/dataset_view.h"
#include "fleet/wire.h"

namespace msamp::fleet {

analysis::RackClass Dataset::class_of(std::uint32_t rack_id) const {
  for (const auto& r : racks) {
    if (r.rack_id == rack_id) {
      return static_cast<analysis::RackClass>(r.rack_class);
    }
  }
  return analysis::RackClass::kRegATypical;
}

std::vector<std::uint8_t> Dataset::serialize() const {
  return wire::v6_blob(*this, wire::rows(server_runs), wire::rows(bursts));
}

bool Dataset::deserialize(const std::vector<std::uint8_t>& blob) {
  DatasetView v;
  if (!DatasetView::attach(blob.data(), blob.size(), &v)) return false;
  *this = from_view(v);
  return true;
}

util::Status Dataset::save(const std::string& path) const {
  return wire::write_v6(*this, wire::rows(server_runs), wire::rows(bursts),
                        path);
}

}  // namespace msamp::fleet
