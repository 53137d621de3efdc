// Contention (§5): for each 1ms sample of a SyncMillisampler run, the
// number of rack servers that are simultaneously bursty.  Includes the
// per-run summaries of §7.3 (min over active samples, p90) and the mapping
// from contention to the DT per-queue buffer share used in Figure 15(b).
#pragma once

#include <span>
#include <vector>

#include "analysis/burst_detect.h"
#include "core/sync_controller.h"

namespace msamp::analysis {

/// Adds one server's series to a rack's per-sample contention: counts[k]
/// grows by one where sample k exceeds the burst threshold.  `counts`
/// holds at least series.size() entries.
void add_contention(std::span<const core::BucketSample> series,
                    const BurstDetectConfig& config, std::span<int> counts);

/// Per-sample contention across the rack: contention[k] = number of
/// servers whose sample k exceeds the burst threshold.
std::vector<int> contention_series(const core::SyncRun& run,
                                   const BurstDetectConfig& config);

/// Run-level contention summary (§7.3).
struct ContentionSummary {
  double avg = 0.0;      ///< mean over ALL samples (idle samples count 0)
  int min_active = 0;    ///< min over samples with contention >= 1
  int p90 = 0;           ///< 90th percentile over all samples
  int max = 0;
  std::size_t samples = 0;
  std::size_t active_samples = 0;  ///< samples with contention >= 1

  /// The paper excludes runs whose p90 contention is zero (6.2% of runs).
  bool usable() const noexcept { return p90 > 0; }
};

ContentionSummary summarize_contention(std::span<const int> contention);

/// DT queue share (fraction of the shared buffer) a queue gets when S
/// queues contend: alpha / (1 + alpha*S), with S floored at 1 (a lone
/// burst still occupies one active queue).
double queue_share_at_contention(double alpha, int contention);

}  // namespace msamp::analysis
