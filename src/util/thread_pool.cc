#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace msamp::util {

int ThreadPool::resolve_values(int requested, const char* env,
                               unsigned hardware) noexcept {
  // Every path clamps to 1024 so a typo (or a pathological cpuset report)
  // degrades to "many threads", never std::system_error from exhaustion.
  constexpr int kMaxThreads = 1024;
  if (requested > 0) return std::min(requested, kMaxThreads);
  if (env != nullptr) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return static_cast<int>(std::min<long>(v, kMaxThreads));
    }
  }
  if (hardware == 0) return 1;
  return static_cast<int>(
      std::min<unsigned>(hardware, static_cast<unsigned>(kMaxThreads)));
}

int ThreadPool::resolve(int requested) noexcept {
  // An explicit request wins; MSAMP_THREADS only fills in the default.
  // This getenv is one of the two documented MSAMP_* readers allowlisted
  // by msamp_lint's nondet-getenv rule (docs/STATIC_ANALYSIS.md) — it may
  // change wall-clock, never bytes.
  return resolve_values(requested, std::getenv("MSAMP_THREADS"),
                        std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(int threads) {
  const int lanes = resolve(threads);
  workers_.reserve(static_cast<std::size_t>(lanes - 1));
  for (int i = 1; i < lanes; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::drain_current_job(int lane) {
  for (;;) {
    // Once the job is drained, or abandoned (next_ stored to n_), every
    // claim returns a value >= n_; the overshoot is harmless, since next_
    // is reset under mu_ before the next job starts.
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n_) return;
    try {
      (*body_)(lane, i);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (!error_) error_ = std::current_exception();
      }
      // Abandon unclaimed indices so every lane falls out of the job and
      // parallel_for can rethrow; indices already claimed still finish.
      next_.store(n_, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::worker_loop(int lane) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    drain_current_job(lane);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_ == 0) cv_done_.notify_one();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  parallel_for(n, std::function<void(int, std::size_t)>(
                      [&body](int, std::size_t i) { body(i); }));
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(int, std::size_t)>& body) {
  if (n == 0) return;
  bool expected = false;
  if (!busy_.compare_exchange_strong(expected, true,
                                     std::memory_order_acq_rel)) {
    throw std::logic_error(
        "ThreadPool::parallel_for is not reentrant: another parallel_for is "
        "already running on this pool, and the pool holds only one job's "
        "state (n/body/generation) — a nested or concurrent job would "
        "silently corrupt it. Nest over a SEPARATE ThreadPool instead; the "
        "pools are work-conserving, so nesting distinct pools cannot "
        "deadlock.");
  }
  struct BusyReset {
    std::atomic<bool>& flag;
    ~BusyReset() { flag.store(false, std::memory_order_release); }
  } reset{busy_};
  if (workers_.empty() || n == 1) {
    // Serial fast path: no locks, no claims, no wake-ups.
    for (std::size_t i = 0; i < n; ++i) body(0, i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    n_ = n;
    body_ = &body;
    error_ = nullptr;
    next_.store(0, std::memory_order_relaxed);
    active_ = workers_.size();
    ++generation_;
  }
  cv_start_.notify_all();
  drain_current_job(0);
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [&] { return active_ == 0; });
  body_ = nullptr;
  if (error_) {
    const std::exception_ptr e = std::exchange(error_, nullptr);
    lock.unlock();
    std::rethrow_exception(e);
  }
}

}  // namespace msamp::util
