// Contention rate vs thread count for util::ThreadPool and the fleet
// runner's in-order commit lock — the observability the NUMA-pinning and
// SIMD work will steer by (docs/OBSERVABILITY.md explains how to read
// each column).
//
// This is the ONE sanctioned reader of the contention counters: every
// other output path is barred from them by msamp_lint's
// counters-not-in-output rule.  Its CSV is deliberately absent from
// scripts/check_bench_determinism.sh — the numbers describe *execution*
// (which lane won a CAS, how often a trylock failed) and legitimately
// vary run to run; only their shape (contention grows with thread count)
// is stable.
//
// The workload mirrors the fleet runner's shape at miniature scale: many
// short parallel_for bodies claiming indices from the shared counter,
// each body then taking one commit mutex (probed through a try_lock) to
// mark its index ready and fold every ready index at the canonical-order
// cursor.  Bodies are a few hundred nanoseconds on purpose — short bodies
// maximize claims and commits (and therefore contention pressure) per
// second, the worst case the counters exist to expose.  No wall clocks
// anywhere: the columns are pure event tallies.
#include <cstdint>
#include <iostream>
#include <mutex>
#include <vector>

#include "common.h"
#include "util/contention_counters.h"
#include "util/thread_pool.h"

using namespace msamp;

namespace {

constexpr std::size_t kIndicesPerRound = 4096;
constexpr std::size_t kRounds = 8;

/// A few hundred nanoseconds of deterministic register work, standing in
/// for one simulation window at 1/1000000 scale.
std::uint64_t spin_work(std::uint64_t x) {
  for (int k = 0; k < 64; ++k) x = (x ^ (x >> 13)) * 0x100000001b3ULL;
  return x;
}

struct RunTallies {
  util::ContentionSnapshot pool;
  util::ContentionSnapshot commit;  ///< lock_* fields of the commit mutex
  std::uint64_t checksum = 0;       ///< commit-side fold (keeps work honest)
};

RunTallies run_workload(int threads) {
  util::ThreadPool pool(threads);
  util::ContentionCounters commit_counters;
  std::mutex commit_mu;
  RunTallies out;
  for (std::size_t round = 0; round < kRounds; ++round) {
    std::vector<std::uint64_t> value(kIndicesPerRound);
    std::vector<unsigned char> ready(kIndicesPerRound, 0);
    std::size_t cursor = 0;
    pool.parallel_for(kIndicesPerRound, [&](std::size_t i) {
      value[i] = spin_work(i + round);
      std::unique_lock<std::mutex> lock(commit_mu, std::try_to_lock);
      commit_counters.count_lock(lock.owns_lock());
      if (!lock.owns_lock()) lock.lock();
      ready[i] = 1;
      for (; cursor < kIndicesPerRound && ready[cursor]; ++cursor) {
        out.checksum += value[cursor];
      }
    });
  }
  out.pool = pool.contention_snapshot();
  out.commit = commit_counters.snapshot();
  return out;
}

}  // namespace

int main() {
  bench::header(
      "Pool contention — trylock/CAS/commit-lock rates vs thread count",
      "observability companion: rates should be ~0 at 1 thread and grow "
      "with thread count on a multi-core host");

  util::Table table({"threads", "lock acq", "lock cont", "lock rate",
                     "cas claims", "cas retries", "cas rate", "waits",
                     "notifies", "commits", "commit lock rate"});
  std::uint64_t fold = 0;
  for (const int threads : {1, 2, 4, 8}) {
    const RunTallies t = run_workload(threads);
    fold ^= t.checksum;
    table.row()
        .cell(static_cast<long long>(threads))
        .cell(static_cast<unsigned long long>(t.pool.lock_acquisitions()))
        .cell(static_cast<unsigned long long>(t.pool.lock_contended))
        .cell(t.pool.lock_contention_rate(), 4)
        .cell(static_cast<unsigned long long>(t.pool.cas_attempts))
        .cell(static_cast<unsigned long long>(t.pool.cas_retries))
        .cell(t.pool.cas_retry_rate(), 4)
        .cell(static_cast<unsigned long long>(t.pool.waits))
        .cell(static_cast<unsigned long long>(t.pool.notifies))
        .cell(static_cast<unsigned long long>(t.commit.lock_acquisitions()))
        .cell(t.commit.lock_contention_rate(), 4);
  }
  bench::emit_table("pool_contention", table);

  std::cout << "\nrows are event tallies over " << kRounds << " rounds x "
            << kIndicesPerRound
            << " claimed indices; rates are contended/total.  The 1-thread "
               "row is the serial fast path: its pool columns and its "
               "commit lock rate are zero by construction.\n"
               "(workload checksum " << fold
            << " — folded under the commit lock, never part of the CSV)\n";
  return 0;
}
