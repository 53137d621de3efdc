#include "core/sync_controller.h"

#include <algorithm>

namespace msamp::core {

SyncRun combine_runs(const std::vector<RunRecord>& records) {
  SyncRun out;
  combine_runs(records, out);
  return out;
}

void GridTrim::add(sim::SimTime start, sim::SimDuration duration) noexcept {
  if (start < 0 || duration <= 0) return;
  const bool first = latest_start_ < 0;
  const sim::SimTime end = start + duration;
  latest_start_ = first ? start : std::max(latest_start_, start);
  earliest_end_ = first ? end : std::min(earliest_end_, end);
}

std::size_t GridTrim::samples() const noexcept {
  return latest_start_ >= 0 && earliest_end_ > latest_start_
             ? static_cast<std::size_t>((earliest_end_ - latest_start_) /
                                        interval_)
             : std::size_t{0};
}

void combine_runs(const std::vector<RunRecord>& records, SyncRun& out) {
  out.interval =
      records.empty() ? sim::kMillisecond : records.front().interval;
  out.hosts.clear();
  GridTrim trim(out.interval);
  for (const auto& r : records) trim.add(r.start, r.duration());
  out.grid_start = trim.start();
  const std::size_t n = trim.samples();
  if (n == 0) {
    out.series.clear();
    return;
  }
  out.series.resize(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    out.hosts.push_back(records[i].host);
    // An idle server (invalid record) contributes a true all-zero series.
    align_series(records[i], out.grid_start, n, out.series[i]);
  }
}

bool SyncController::collect(sim::SimDuration interval,
                             sim::SimDuration lead_time, Done done) {
  if (pending_ || samplers_.empty()) return false;
  pending_ = true;
  done_ = std::move(done);
  records_.clear();
  records_.resize(samplers_.size());
  outstanding_ = samplers_.size();

  simulator_.schedule_in(lead_time, [this, interval] {
    for (std::size_t i = 0; i < samplers_.size(); ++i) {
      const bool ok = samplers_[i]->start_run(
          interval, [this, i](const RunRecord& record) {
            records_[i] = record;
            if (--outstanding_ == 0) {
              pending_ = false;
              if (done_) {
                auto cb = std::move(done_);
                done_ = nullptr;
                cb(combine_runs(records_));
              }
            }
          });
      if (!ok) {
        // A periodic run was still active despite the lead time; count the
        // server as idle rather than deadlocking the collection.
        records_[i] = RunRecord{};
        records_[i].host = samplers_[i]->host().id();
        if (--outstanding_ == 0) {
          pending_ = false;
          if (done_) {
            auto cb = std::move(done_);
            done_ = nullptr;
            cb(combine_runs(records_));
          }
        }
      }
    }
  });
  return true;
}

}  // namespace msamp::core
