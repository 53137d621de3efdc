// Deterministic fork-join worker pool.
//
// `parallel_for(n, body)` runs body(i) for every i in [0, n) across the
// pool's workers plus the calling thread and blocks until all indices
// completed.  Indices are claimed from one shared atomic counter — no
// per-thread queues, no work stealing — so there is no scheduler state
// that could leak into results.  Determinism is the caller's side of the
// contract: body(i) must depend only on i (derive RNGs by forking from a
// keyed seed, never from execution order) and per-index results must be
// reduced in canonical index order afterwards.  Under that contract the
// output is byte-identical for any thread count, including 1.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace msamp::util {

class ThreadPool {
 public:
  /// Spawns `resolve(threads) - 1` workers (the caller is the remaining
  /// lane).  A positive `threads` is used as given; `threads == 0` means
  /// the MSAMP_THREADS environment variable when set, else all hardware
  /// cores.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (workers + the calling thread).
  int size() const noexcept { return static_cast<int>(workers_.size()) + 1; }

  /// Runs body(0) ... body(n-1), each exactly once, and returns when all
  /// are done.  The calling thread participates.  `body` must be safe to
  /// invoke concurrently for distinct indices.  If a body throws (on any
  /// lane), unclaimed indices are abandoned, the job drains, and the
  /// FIRST captured exception is rethrown on the calling thread; the pool
  /// stays reusable afterwards.  Not reentrant: the pool holds exactly
  /// one job's state, so a nested or concurrent parallel_for on the SAME
  /// pool throws std::logic_error (nest over distinct pools instead — the
  /// pools are work-conserving, so that never deadlocks).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  /// Lane-aware variant: body(lane, i) with `lane` in [0, size()) — the
  /// calling thread is lane 0, workers are 1..size()-1 — so a caller can
  /// keep per-lane state (scratch buffers, the fleet runner's re-armed
  /// FluidRack) without thread-id hashing.  A lane runs on one fixed
  /// thread for the whole job.  Same contract as the index-only overload
  /// otherwise, including the determinism rule: results must not depend
  /// on which lane ran which index.
  void parallel_for(std::size_t n,
                    const std::function<void(int, std::size_t)>& body);

  /// Effective thread count: an explicit `requested` value (positive
  /// integer) wins, else the MSAMP_THREADS env var when set to a positive
  /// integer, else the hardware concurrency (at least 1).  All three
  /// paths clamp to 1024.
  static int resolve(int requested) noexcept;

  /// The pure resolution rule behind `resolve`, with the environment
  /// value and hardware concurrency passed in (exposed so the clamp on
  /// every path — including the hardware fallback — is unit-testable).
  static int resolve_values(int requested, const char* env,
                            unsigned hardware) noexcept;

 private:
  void worker_loop(int lane);
  void drain_current_job(int lane);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;  ///< bumped per job; workers wait on it
  std::size_t active_ = 0;        ///< workers still inside the current job
  bool stop_ = false;

  // Current job; written under mu_ before generation_ bumps, read by
  // workers only after observing the bump (so the mutex orders access).
  std::size_t n_ = 0;
  const std::function<void(int, std::size_t)>* body_ = nullptr;
  std::atomic<std::size_t> next_{0};  ///< next unclaimed index
  std::exception_ptr error_;  ///< first exception thrown by the job's body
  std::atomic<bool> busy_{false};  ///< re-entrancy guard for parallel_for
};

}  // namespace msamp::util
