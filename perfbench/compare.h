// msamp_bench --compare A B: two sets of result.json files, side by side.
#pragma once

#include "support.h"

namespace msamp::perfbench {

/// For each workload x metric present in both directories (searched
/// recursively for result.json), prints both medians and quartiles, the
/// share of runs B wins when the i-th runs of each side are paired (in
/// seed order), and a verdict: `improved` (B wins at least 9 of 10 pairs
/// and the medians differ by more than A's interquartile range),
/// `regressed` (B's median worse than A's by more than the metric's
/// bound), `unresolved` (either side spreads wider than the bound), or
/// `unchanged`.  Bounds and directions come from BENCHMARK.json under
/// `root`.  Returns 1 if anything regressed, 2 on unreadable input.
int run_compare(const fs::path& a, const fs::path& b, const fs::path& root);

}  // namespace msamp::perfbench
