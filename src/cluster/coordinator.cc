#include "cluster/coordinator.h"

#include <poll.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <utility>

#include "cluster/protocol.h"
#include "cluster/worker.h"
#include "net/buffer_policy.h"
#include "util/stats.h"

namespace msamp::cluster {
namespace {

constexpr std::int64_t kMaxPollMs = 100;

std::string shard_label(const fleet::ShardSpec& s) {
  return "shard " + std::to_string(s.index) + "/" + std::to_string(s.count);
}

/// Round-trip-exact spelling of a double: the worker re-parses these
/// flags with strtod, and its config must serialize to the coordinator's
/// bytes or the post-merge guard fails the run (and its fault rate must
/// be the one the coordinator announces).
std::string exact_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Coordinator::Coordinator(ClusterConfig config) : cfg_(std::move(config)) {
  if (cfg_.workers < 1) cfg_.workers = 1;
  if (cfg_.shard_dir.empty()) cfg_.shard_dir = cfg_.out_path + ".shards";
}

std::vector<std::string> Coordinator::command_for(const Slot& slot) const {
  if (cfg_.spawn_command) {
    return cfg_.spawn_command(slot.shard, slot.attempts, slot.out);
  }
  const auto& f = cfg_.fleet;
  return {self_exe_path(),
          "worker",
          "--seed",
          std::to_string(f.seed),
          "--racks",
          std::to_string(f.racks_per_region),
          "--hours",
          std::to_string(f.hours),
          "--samples",
          std::to_string(f.samples_per_run),
          "--threads",
          std::to_string(f.threads),
          "--policy",
          std::string(net::policy_name(f.buffer.policy)),
          "--alpha",
          exact_double(f.buffer.alpha),
          "--boost",
          exact_double(f.buffer.burst_alpha_boost),
          "--target-delay",
          exact_double(f.buffer.delay.target_delay_ms),
          "--shard",
          std::to_string(slot.shard.index) + "/" +
              std::to_string(slot.shard.count),
          "--out",
          slot.out,
          "--attempt",
          std::to_string(slot.attempts),
          "--fault-rate",
          exact_double(cfg_.fault_rate)};
}

bool Coordinator::run(std::function<void(double)> progress, std::ostream* log,
                      std::string* error) {
  const auto fail = [&](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  const auto say = [&](const std::string& line) {
    if (log != nullptr) *log << "cluster: " << line << "\n" << std::flush;
  };

  std::error_code ec;
  std::filesystem::create_directories(cfg_.shard_dir, ec);
  if (ec) {
    return fail("cannot create shard directory " + cfg_.shard_dir + ": " +
                ec.message());
  }

  const std::size_t total =
      2ull * static_cast<std::size_t>(cfg_.fleet.racks_per_region) *
      static_cast<std::size_t>(cfg_.fleet.hours);
  const auto workers = static_cast<std::uint32_t>(cfg_.workers);
  std::vector<Slot> slots(workers);
  for (std::uint32_t i = 0; i < workers; ++i) {
    slots[i].shard = fleet::ShardSpec{i, workers};
    slots[i].out = (std::filesystem::path(cfg_.shard_dir) /
                    ("shard-" + std::to_string(i) + ".bin"))
                       .string();
  }
  const std::size_t max_parallel =
      cfg_.max_parallel > 0
          ? std::min<std::size_t>(static_cast<std::size_t>(cfg_.max_parallel),
                                  workers)
          : workers;

  // The aggregate progress stream: worker fractions weighted by shard
  // window counts.  Emit only strictly increasing values below 1.0 — a
  // retried shard's reset can make the raw aggregate dip, and the exact
  // 1.0 is reserved for after the merge, matching run_fleet's contract.
  double emitted = 0.0;
  const auto emit_progress = [&] {
    if (progress == nullptr || total == 0) return;
    const double done_windows =
        util::canonical_sum_over(slots, [&](const Slot& s) {
          const auto w = static_cast<double>(s.shard.end(total) -
                                             s.shard.begin(total));
          return w * (s.state == Slot::State::kDone ? 1.0 : s.fraction);
        });
    const double agg = done_windows / static_cast<double>(total);
    if (agg > emitted && agg < 1.0) {
      progress(agg);
      emitted = agg;
    }
  };

  // One shard attempt ended without a shard file: retry with backoff, or
  // give up and take the whole run down.  A failure that is not
  // retryable (a usage error) gives up at once.
  const auto attempt_failed = [&](Slot& s, const std::string& why,
                                  std::string* give_up,
                                  bool retryable = true) {
    if (!retryable || !cfg_.retry.can_retry(static_cast<int>(s.attempts))) {
      *give_up = shard_label(s.shard) + " failed after " +
                 std::to_string(s.attempts) + " attempt(s): " + why;
      return;
    }
    const int delay = cfg_.retry.delay_ms(static_cast<int>(s.attempts));
    s.state = Slot::State::kPending;
    s.fraction = 0.0;
    s.pipe_buf.clear();
    s.next_start_ms = steady_now_ms() + delay;
    say(shard_label(s.shard) + " attempt " + std::to_string(s.attempts) +
        " failed (" + why + "); retrying in " + std::to_string(delay) + "ms");
  };

  const auto drain = [&](Slot& s) {
    s.child.read_available(&s.pipe_buf);
    for (const std::string& line : take_lines(&s.pipe_buf)) {
      Heartbeat hb;
      if (!decode(line, &hb)) continue;  // stray output; not ours
      s.last_heartbeat_ms = steady_now_ms();
      switch (hb.kind) {
        case Heartbeat::Kind::kProgress:
          if (hb.fraction > s.fraction) s.fraction = hb.fraction;
          break;
        case Heartbeat::Kind::kError:
          s.last_error = hb.message;
          break;
        case Heartbeat::Kind::kDone:
          break;
      }
    }
  };

  while (true) {
    const std::int64_t now = steady_now_ms();
    std::size_t running = 0, done = 0;
    for (const Slot& s : slots) {
      running += s.state == Slot::State::kRunning;
      done += s.state == Slot::State::kDone;
    }
    if (done == slots.size()) break;

    // Launch eligible pending shards, lowest index first.
    for (Slot& s : slots) {
      if (running >= max_parallel) break;
      if (s.state != Slot::State::kPending || now < s.next_start_ms) continue;
      std::string why;
      const auto argv = command_for(s);
      ++s.attempts;
      if (!s.child.spawn(argv, &why)) {
        std::string give_up;
        attempt_failed(s, "spawn failed: " + why, &give_up);
        if (!give_up.empty()) return fail(give_up);
        continue;
      }
      s.state = Slot::State::kRunning;
      s.fraction = 0.0;
      s.last_error.clear();
      s.last_heartbeat_ms = now;
      say(shard_label(s.shard) + " attempt " + std::to_string(s.attempts) +
          " started (pid " + std::to_string(s.child.pid()) + ")");
      ++running;
    }

    // Sleep until something can happen: pipe data, a backoff expiring, or
    // a stall deadline.
    std::vector<pollfd> fds;
    std::int64_t timeout = kMaxPollMs;
    for (Slot& s : slots) {
      if (s.state == Slot::State::kRunning) {
        if (s.child.stdout_fd() >= 0) {
          fds.push_back({s.child.stdout_fd(), POLLIN, 0});
        }
        timeout = std::min(
            timeout, s.last_heartbeat_ms + cfg_.stall_timeout_ms - now);
      } else if (s.state == Slot::State::kPending) {
        timeout = std::min(timeout, s.next_start_ms - now);
      }
    }
    ::poll(fds.empty() ? nullptr : fds.data(),
           static_cast<nfds_t>(fds.size()),
           static_cast<int>(std::max<std::int64_t>(timeout, 0)));

    for (Slot& s : slots) {
      if (s.state != Slot::State::kRunning) continue;
      drain(s);
      int status = 0;
      if (s.child.try_wait(&status)) {
        drain(s);  // the last buffered heartbeats
        std::error_code exists_ec;
        if (exited_ok(status) &&
            std::filesystem::is_regular_file(s.out, exists_ec)) {
          s.state = Slot::State::kDone;
          say(shard_label(s.shard) + " done (attempt " +
              std::to_string(s.attempts) + ")");
        } else {
          std::string why = describe_status(status);
          if (!s.last_error.empty()) why += ": " + s.last_error;
          if (exited_ok(status)) why = "exited 0 without a shard file";
          const bool usage_error = exited_with(status, kUsageExitCode);
          if (usage_error) why += " (a usage error, not retried)";
          std::string give_up;
          attempt_failed(s, why, &give_up, !usage_error);
          if (!give_up.empty()) return fail(give_up);
        }
      } else if (steady_now_ms() - s.last_heartbeat_ms >
                 cfg_.stall_timeout_ms) {
        s.child.kill_hard();
        std::string give_up;
        attempt_failed(s,
                       "stalled (no heartbeat for " +
                           std::to_string(cfg_.stall_timeout_ms) + "ms)",
                       &give_up);
        if (!give_up.empty()) return fail(give_up);
      }
    }
    emit_progress();
  }

  std::vector<std::string> paths;
  paths.reserve(slots.size());
  for (const Slot& s : slots) paths.push_back(s.out);
  if (auto st = fleet::merge_shards(paths, cfg_.out_path, &stats_); !st) {
    return fail("merge failed: " + st.to_string());
  }
  // Bytes first: fingerprint() only hashes a config equal to the shards'
  // validated one.
  const std::string field(stats_.config.differing_field(cfg_.fleet));
  if (!field.empty() || stats_.fingerprint != cfg_.fleet.fingerprint()) {
    return fail("merged config or fingerprint disagrees with the "
                "coordinator's" + (field.empty() ? "" : " in " + field) +
                " — the workers generated from a different config (is "
                "every FleetConfig field expressible in the worker "
                "command?)");
  }
  if (!cfg_.keep_shards) {
    for (const Slot& s : slots) {
      for (const char* suffix : {"", ".tmp"}) {
        std::filesystem::remove(s.out + suffix, ec);
      }
      // Crashed attempts can leave per-column spill files behind
      // (<out>.spill-<section>-c<N>); finalize removes them on success.
      const std::filesystem::path dir =
          std::filesystem::path(s.out).parent_path();
      const std::string spill_prefix =
          std::filesystem::path(s.out).filename().string() + ".spill-";
      std::error_code iter_ec;
      for (const auto& entry :
           std::filesystem::directory_iterator(dir, iter_ec)) {
        if (entry.path().filename().string().rfind(spill_prefix, 0) == 0) {
          std::filesystem::remove(entry.path(), ec);
        }
      }
    }
    std::filesystem::remove(cfg_.shard_dir, ec);  // only when empty
  }
  if (progress != nullptr) progress(1.0);
  say("merged " + std::to_string(slots.size()) + " shard(s) into " +
      cfg_.out_path);
  return true;
}

}  // namespace msamp::cluster
