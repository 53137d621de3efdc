// SyncMillisampler (§4.4): a centralized control plane that triggers
// concurrent Millisampler runs on every server of a rack, fetches the
// resulting records, aligns them onto a uniform time grid (linear
// interpolation) and trims to the overlapping window.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/interpolate.h"
#include "core/run_record.h"
#include "core/sampler.h"
#include "sim/simulator.h"

namespace msamp::core {

/// The combined, aligned result of one synchronized rack collection.
struct SyncRun {
  sim::SimTime grid_start = -1;      ///< time of sample 0 on the common grid
  sim::SimDuration interval = sim::kMillisecond;
  std::vector<net::HostId> hosts;    ///< one entry per server (row order)
  /// series[s][k] = server s, grid sample k.  Rows for servers that saw no
  /// traffic are all-zero.
  std::vector<std::vector<BucketSample>> series;

  std::size_t num_servers() const noexcept { return series.size(); }
  std::size_t num_samples() const noexcept {
    return series.empty() ? 0 : series.front().size();
  }
  sim::SimDuration duration() const noexcept {
    return interval * static_cast<sim::SimDuration>(num_samples());
  }
};

/// SyncMillisampler's trim (§4.4; §5: the average trimmed run is 1.85 s
/// of a nominal 2 s): the common grid of the host runs that started spans
/// [latest start, earliest end) in whole intervals.  combine_runs and the
/// fleet's fluid rack both fold their runs through it.
class GridTrim {
 public:
  explicit GridTrim(sim::SimDuration interval) : interval_(interval) {}

  /// Folds in one host's run.  A run that never started (negative start)
  /// or holds no bucket (zero duration) leaves the grid as it is.
  void add(sim::SimTime start, sim::SimDuration duration) noexcept;

  /// Samples on the grid: 0 when no run started or the runs do not
  /// overlap by a whole interval.
  std::size_t samples() const noexcept;

  /// Time of the grid's first sample; -1 when it has none.
  sim::SimTime start() const noexcept {
    return samples() == 0 ? -1 : latest_start_;
  }

 private:
  sim::SimDuration interval_;
  sim::SimTime latest_start_ = -1;  ///< -1 until a run that started is added
  sim::SimTime earliest_end_ = -1;
};

/// Builds a SyncRun out of per-host run records: each record aligned onto
/// the GridTrim of all of them, or no series when the grid is empty.
SyncRun combine_runs(const std::vector<RunRecord>& records);

/// Same combination into `out`, reusing its host and series capacity; the
/// result equals the by-value form's whatever `out` held before.
void combine_runs(const std::vector<RunRecord>& records, SyncRun& out);

/// The control plane.  Owns no samplers; it coordinates the ones passed in.
class SyncController {
 public:
  using Done = std::function<void(const SyncRun&)>;

  explicit SyncController(sim::Simulator& simulator) : simulator_(simulator) {}

  /// Registers a rack server's sampler.
  void add_sampler(Sampler* sampler) { samplers_.push_back(sampler); }

  /// Schedules a synchronized collection to start `lead_time` from now
  /// (the paper schedules far enough ahead that no periodic run overlaps).
  /// Each sampler samples at `interval`; `done` receives the aligned run.
  /// Returns false if a sync collection is already pending.
  bool collect(sim::SimDuration interval, sim::SimDuration lead_time,
               Done done);

  std::size_t num_samplers() const noexcept { return samplers_.size(); }

 private:
  sim::Simulator& simulator_;
  std::vector<Sampler*> samplers_;
  bool pending_ = false;
  std::size_t outstanding_ = 0;
  std::vector<RunRecord> records_;
  Done done_;
};

}  // namespace msamp::core
