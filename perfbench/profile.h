// The traced profile (--trace 1): one in-process pass over every layer,
// with a span around each call into a layer's public functions, repeated
// until the run's seconds are spent.  It is kept apart from the timed
// end-to-end runs so the spans never sit on a measured path; the same
// profile serves every workload, whose names only label the run.
#pragma once

#include "result.h"
#include "support.h"
#include "workloads.h"

namespace msamp::perfbench {

/// The per-layer metrics the profile reports, in BENCHMARK.json order:
/// {name, unit}.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

/// Runs the profile and writes trace.json (Chrome trace events) and
/// layers.json (self time per span name) next to result.json.
RunResult run_profile(const RunOptions& options, const Programs& programs,
                      const Stamp& stamp);

}  // namespace msamp::perfbench
