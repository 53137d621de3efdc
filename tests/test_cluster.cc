// src/cluster/ unit and integration tests: heartbeat protocol framing,
// retry backoff arithmetic, POSIX child plumbing, the deterministic
// fault plan, the in-process worker, and the coordinator driven through
// its spawn_command test hook with /bin/sh stand-in workers — covering
// the success path, crash-then-retry, retry exhaustion, stall detection
// (and that its kill takes the worker's own children), the no-shard-file
// exit, and the post-merge fingerprint guard.  The real
// fork/exec-of-msampctl path is exercised end to end by the cli_cluster
// ctest and scripts/check_dataset_determinism.sh.
#include "cluster/coordinator.h"

#include <poll.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/process.h"
#include "cluster/protocol.h"
#include "cluster/retry.h"
#include "cluster/worker.h"
#include "fleet/fleet_runner.h"
#include "fleet/shard.h"

namespace msamp::cluster {
namespace {

namespace fs = std::filesystem;

fleet::FleetConfig tiny_config() {
  fleet::FleetConfig config;
  config.racks_per_region = 1;
  config.hours = 1;
  config.samples_per_run = 100;
  config.threads = 1;
  return config;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::current_path() / ("cluster_test_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// --- protocol ----------------------------------------------------------

TEST(Protocol, ProgressRoundTripsThroughEncodeDecode) {
  Heartbeat hb;
  hb.kind = Heartbeat::Kind::kProgress;
  hb.fraction = 0.375;
  Heartbeat parsed;
  ASSERT_TRUE(decode(encode(hb), &parsed));
  EXPECT_EQ(parsed.kind, Heartbeat::Kind::kProgress);
  EXPECT_DOUBLE_EQ(parsed.fraction, 0.375);
}

TEST(Protocol, DoneAndErrorRoundTrip) {
  Heartbeat done;
  done.kind = Heartbeat::Kind::kDone;
  Heartbeat parsed;
  ASSERT_TRUE(decode(encode(done), &parsed));
  EXPECT_EQ(parsed.kind, Heartbeat::Kind::kDone);

  Heartbeat error;
  error.kind = Heartbeat::Kind::kError;
  error.message = "disk full: /tmp/shard-0.bin";
  ASSERT_TRUE(decode(encode(error), &parsed));
  EXPECT_EQ(parsed.kind, Heartbeat::Kind::kError);
  EXPECT_EQ(parsed.message, "disk full: /tmp/shard-0.bin");
}

TEST(Protocol, MalformedLinesAreRejectedNotCrashed) {
  const char* bad[] = {
      "",
      "hello world",                // a worker's library printf
      "msamp-hb",                   // no verb
      "msamp-hb nonsense",          // unknown verb
      "msamp-hb progress",          // missing fraction
      "msamp-hb progress abc",      // non-numeric
      "msamp-hb progress 1.5",      // out of range
      "msamp-hb progress -0.1",     // out of range
      "msamp-hb progress 0.5 tail"  // trailing junk
  };
  Heartbeat hb;
  for (const char* line : bad) {
    EXPECT_FALSE(decode(line, &hb)) << "accepted: \"" << line << "\"";
  }
}

TEST(Protocol, TakeLinesSplitsCompleteLinesAndKeepsThePartialTail) {
  std::string buf = "msamp-hb progress 0.5\nmsamp-hb do";
  auto lines = take_lines(&buf);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "msamp-hb progress 0.5");
  EXPECT_EQ(buf, "msamp-hb do");

  buf += "ne\n";
  lines = take_lines(&buf);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "msamp-hb done");
  EXPECT_TRUE(buf.empty());
}

// --- retry policy ------------------------------------------------------

TEST(Retry, BudgetCountsTotalLaunches) {
  RetryPolicy policy;  // max_attempts = 5
  EXPECT_TRUE(policy.can_retry(0));
  EXPECT_TRUE(policy.can_retry(4));
  EXPECT_FALSE(policy.can_retry(5));
  EXPECT_FALSE(policy.can_retry(6));
}

TEST(Retry, BackoffDoublesAndCaps) {
  RetryPolicy policy;  // base 200ms, cap 5000ms
  EXPECT_EQ(policy.delay_ms(0), 0);  // first launch: no delay
  EXPECT_EQ(policy.delay_ms(1), 200);
  EXPECT_EQ(policy.delay_ms(2), 400);
  EXPECT_EQ(policy.delay_ms(3), 800);
  EXPECT_EQ(policy.delay_ms(10), 5000);  // 200 * 2^9 clipped to the cap
}

// --- child processes ---------------------------------------------------

TEST(ChildProcess, CapturesStdoutAndExitStatus) {
  ChildProcess child;
  std::string why;
  ASSERT_TRUE(child.spawn({"/bin/sh", "-c", "echo hello; exit 0"}, &why))
      << why;
  std::string out;
  while (child.read_available(&out)) {
  }
  int status = 0;
  while (!child.try_wait(&status)) {
  }
  child.read_available(&out);
  EXPECT_NE(out.find("hello"), std::string::npos);
  EXPECT_TRUE(exited_ok(status));
  EXPECT_EQ(describe_status(status), "exit code 0");
}

TEST(ChildProcess, NonZeroExitIsNotOk) {
  ChildProcess child;
  std::string why;
  ASSERT_TRUE(child.spawn({"/bin/sh", "-c", "exit 3"}, &why)) << why;
  int status = 0;
  while (!child.try_wait(&status)) {
  }
  EXPECT_FALSE(exited_ok(status));
  EXPECT_EQ(describe_status(status), "exit code 3");
}

TEST(ChildProcess, ExecFailureSurfacesAsExit127) {
  ChildProcess child;
  std::string why;
  ASSERT_TRUE(child.spawn({"/no/such/binary/anywhere"}, &why)) << why;
  int status = 0;
  while (!child.try_wait(&status)) {
  }
  EXPECT_FALSE(exited_ok(status));
  EXPECT_EQ(describe_status(status), "exit code 127");
}

TEST(ChildProcess, KillHardReapsARunningChild) {
  ChildProcess child;
  std::string why;
  ASSERT_TRUE(child.spawn({"/bin/sh", "-c", "sleep 30"}, &why)) << why;
  EXPECT_TRUE(child.running());
  child.kill_hard();
  EXPECT_FALSE(child.running());
}

TEST(ChildProcess, SelfExePathResolves) {
  const std::string exe = self_exe_path();
  ASSERT_FALSE(exe.empty());
  EXPECT_TRUE(fs::exists(exe)) << exe;
}

// --- fault plan --------------------------------------------------------

TEST(FaultPlan, ZeroRateNeverFaults) {
  WorkerConfig config;
  config.fleet = tiny_config();
  config.fault_rate = 0.0;
  EXPECT_FALSE(fault_plan(config).has_value());
}

TEST(FaultPlan, CertainRateAlwaysFaultsWithinTheShard) {
  WorkerConfig config;
  config.fleet = tiny_config();  // 2 canonical windows
  config.fault_rate = 1.0;
  for (std::uint32_t attempt = 0; attempt < 8; ++attempt) {
    config.attempt = attempt;
    const auto plan = fault_plan(config);
    ASSERT_TRUE(plan.has_value()) << "attempt " << attempt;
    EXPECT_LE(*plan, 2u);  // may fire after the last window, pre-finalize
  }
}

TEST(FaultPlan, IsDeterministicPerSeedShardAndAttempt) {
  WorkerConfig config;
  config.fleet = tiny_config();
  config.fault_rate = 0.5;
  config.shard = fleet::ShardSpec{1, 3};
  config.attempt = 2;
  const auto a = fault_plan(config);
  const auto b = fault_plan(config);
  EXPECT_EQ(a, b);
}

// --- worker ------------------------------------------------------------

TEST(Worker, GeneratesTheShardAndEmitsWellFormedHeartbeats) {
  const fs::path dir = fresh_dir("worker");
  WorkerConfig config;
  config.fleet = tiny_config();
  config.out_path = (dir / "shard.bin").string();

  std::ostringstream heartbeats;
  ASSERT_EQ(run_worker(config, heartbeats), 0);
  ASSERT_TRUE(fs::exists(config.out_path));

  // The shard file is the canonical full-day bytes (shard 0/1).
  const fs::path ref = dir / "ref.bin";
  ASSERT_TRUE(fleet::run_fleet(config.fleet).save(ref.string()));
  EXPECT_EQ(file_bytes(config.out_path), file_bytes(ref));

  // Every line decodes; progress is strictly increasing and ends with a
  // final `done`.
  std::string buf = heartbeats.str();
  const auto lines = take_lines(&buf);
  ASSERT_FALSE(lines.empty());
  double last = -1.0;
  for (const auto& line : lines) {
    Heartbeat hb;
    ASSERT_TRUE(decode(line, &hb)) << line;
    if (hb.kind == Heartbeat::Kind::kProgress) {
      EXPECT_GT(hb.fraction, last);
      last = hb.fraction;
    }
  }
  Heartbeat final_hb;
  ASSERT_TRUE(decode(lines.back(), &final_hb));
  EXPECT_EQ(final_hb.kind, Heartbeat::Kind::kDone);
  fs::remove_all(dir);
}

// --- coordinator (spawn_command stub workers) --------------------------

// Stages real shard files for `workers` shards of `config` under
// `dir`/staged-<i>.bin and returns their paths, so /bin/sh stub workers
// can `cp` them into place.
std::vector<std::string> stage_shards(const fleet::FleetConfig& config,
                                      int workers, const fs::path& dir) {
  std::vector<std::string> staged;
  for (int i = 0; i < workers; ++i) {
    const fleet::ShardSpec shard{static_cast<std::uint32_t>(i),
                                 static_cast<std::uint32_t>(workers)};
    fleet::DatasetBuilder builder(config, shard);
    fleet::run_fleet(config, shard, builder);
    const fs::path path = dir / ("staged-" + std::to_string(i) + ".bin");
    EXPECT_TRUE(builder.take().save(path.string()));
    staged.push_back(path.string());
  }
  return staged;
}

ClusterConfig stub_cluster(const fs::path& dir, int workers) {
  ClusterConfig config;
  config.fleet = tiny_config();
  config.workers = workers;
  config.out_path = (dir / "merged.bin").string();
  config.retry.base_delay_ms = 1;
  config.retry.max_delay_ms = 4;
  return config;
}

TEST(Coordinator, MergesStubWorkersByteIdenticallyWithMonotonicProgress) {
  const fs::path dir = fresh_dir("coord_ok");
  ClusterConfig config = stub_cluster(dir, 2);
  const auto staged = stage_shards(config.fleet, 2, dir);
  config.spawn_command = [&staged](const fleet::ShardSpec& shard,
                                   std::uint32_t /*attempt*/,
                                   const std::string& out) {
    const std::string script = "echo 'msamp-hb progress 0.5'; cp " +
                               staged[shard.index] + " " + out +
                               "; echo 'msamp-hb done'";
    return std::vector<std::string>{"/bin/sh", "-c", script};
  };

  std::vector<double> progress;
  std::string why;
  Coordinator coordinator(config);
  ASSERT_TRUE(coordinator.run([&](double p) { progress.push_back(p); },
                              nullptr, &why))
      << why;

  const fs::path ref = dir / "ref.bin";
  ASSERT_TRUE(fleet::run_fleet(config.fleet).save(ref.string()));
  EXPECT_EQ(file_bytes(config.out_path), file_bytes(ref));
  EXPECT_EQ(coordinator.stats().shards, 2u);
  EXPECT_EQ(coordinator.stats().fingerprint, config.fleet.fingerprint());

  // One serialized, strictly increasing stream ending at exactly 1.0 —
  // run_fleet's progress contract.
  ASSERT_FALSE(progress.empty());
  for (std::size_t i = 1; i < progress.size(); ++i) {
    EXPECT_GT(progress[i], progress[i - 1]);
  }
  EXPECT_EQ(progress.back(), 1.0);
  // Shard files were cleaned up after the merge.
  EXPECT_FALSE(fs::exists(dir / "merged.bin.shards" / "shard-0.bin"));
  fs::remove_all(dir);
}

TEST(Coordinator, RetriesACrashedWorkerAndStillMatchesTheBytes) {
  const fs::path dir = fresh_dir("coord_retry");
  ClusterConfig config = stub_cluster(dir, 2);
  const auto staged = stage_shards(config.fleet, 2, dir);
  // Shard 1's first attempt dies without output; its retry succeeds.
  config.spawn_command = [&staged](const fleet::ShardSpec& shard,
                                   std::uint32_t attempt,
                                   const std::string& out) {
    std::string script;
    if (shard.index == 1 && attempt == 0) {
      script = "exit 9";
    } else {
      script = "cp " + staged[shard.index] + " " + out;
    }
    return std::vector<std::string>{"/bin/sh", "-c", script};
  };

  std::string why;
  Coordinator coordinator(config);
  ASSERT_TRUE(coordinator.run(nullptr, nullptr, &why)) << why;

  const fs::path ref = dir / "ref.bin";
  ASSERT_TRUE(fleet::run_fleet(config.fleet).save(ref.string()));
  EXPECT_EQ(file_bytes(config.out_path), file_bytes(ref));
  fs::remove_all(dir);
}

TEST(Coordinator, ReportsFailureWhenTheRetryBudgetIsExhausted) {
  const fs::path dir = fresh_dir("coord_exhaust");
  ClusterConfig config = stub_cluster(dir, 2);
  config.retry.max_attempts = 2;
  config.spawn_command = [](const fleet::ShardSpec&, std::uint32_t,
                            const std::string&) {
    return std::vector<std::string>{"/bin/sh", "-c", "exit 7"};
  };

  std::string why;
  Coordinator coordinator(config);
  EXPECT_FALSE(coordinator.run(nullptr, nullptr, &why));
  EXPECT_NE(why.find("after 2 attempt(s)"), std::string::npos) << why;
  EXPECT_NE(why.find("exit code 7"), std::string::npos) << why;
  EXPECT_FALSE(fs::exists(config.out_path));
  fs::remove_all(dir);
}

TEST(Coordinator, UsageExitIsNotRetried) {
  // A worker that rejects its command line rejects it again on every
  // retry: the run fails on the first such exit, without backing off.
  const fs::path dir = fresh_dir("coord_usage");
  ClusterConfig config = stub_cluster(dir, 1);
  config.retry.max_attempts = 5;
  config.retry.base_delay_ms = 10000;
  config.retry.max_delay_ms = 10000;
  config.spawn_command = [](const fleet::ShardSpec&, std::uint32_t,
                            const std::string&) {
    return std::vector<std::string>{"/bin/sh", "-c", "exit 2"};
  };

  std::string why;
  Coordinator coordinator(config);
  const std::int64_t start = steady_now_ms();
  EXPECT_FALSE(coordinator.run(nullptr, nullptr, &why));
  EXPECT_LT(steady_now_ms() - start, 5000);
  EXPECT_NE(why.find("after 1 attempt(s)"), std::string::npos) << why;
  EXPECT_NE(why.find("exit code 2"), std::string::npos) << why;
  EXPECT_FALSE(fs::exists(config.out_path));
  fs::remove_all(dir);
}

TEST(Coordinator, StallDetectionKillsAWedgedWorker) {
  const fs::path dir = fresh_dir("coord_stall");
  ClusterConfig config = stub_cluster(dir, 1);
  config.retry.max_attempts = 1;
  config.stall_timeout_ms = 100;
  config.spawn_command = [](const fleet::ShardSpec&, std::uint32_t,
                            const std::string&) {
    // Wedged: never heartbeats, never exits on its own.
    return std::vector<std::string>{"/bin/sh", "-c", "sleep 30"};
  };

  std::string why;
  Coordinator coordinator(config);
  EXPECT_FALSE(coordinator.run(nullptr, nullptr, &why));
  EXPECT_NE(why.find("stalled"), std::string::npos) << why;
  fs::remove_all(dir);
}

TEST(Coordinator, StallKillTakesTheWorkersDescendants) {
  // The wedged stub's `sleep` inherits the write end of this pipe.  Once
  // run() returns, no process may still hold it: the stall kill reached
  // the whole process group, not only the direct child.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const fs::path dir = fresh_dir("coord_stall_group");
  ClusterConfig config = stub_cluster(dir, 1);
  config.retry.max_attempts = 1;
  config.stall_timeout_ms = 100;
  config.spawn_command = [](const fleet::ShardSpec&, std::uint32_t,
                            const std::string&) {
    return std::vector<std::string>{"/bin/sh", "-c", "sleep 30; exit 0"};
  };

  std::string why;
  Coordinator coordinator(config);
  EXPECT_FALSE(coordinator.run(nullptr, nullptr, &why));
  EXPECT_NE(why.find("stalled"), std::string::npos) << why;
  ::close(fds[1]);
  pollfd p{fds[0], POLLIN, 0};
  ASSERT_EQ(::poll(&p, 1, /*timeout_ms=*/2000), 1)
      << "a descendant of the killed worker still holds the pipe";
  char byte = 0;
  EXPECT_EQ(::read(fds[0], &byte, 1), 0);
  ::close(fds[0]);
  fs::remove_all(dir);
}

TEST(Coordinator, CleanExitWithoutAShardFileIsAFailedAttempt) {
  const fs::path dir = fresh_dir("coord_nofile");
  ClusterConfig config = stub_cluster(dir, 1);
  config.retry.max_attempts = 1;
  config.spawn_command = [](const fleet::ShardSpec&, std::uint32_t,
                            const std::string&) {
    return std::vector<std::string>{"/bin/sh", "-c", "exit 0"};
  };

  std::string why;
  Coordinator coordinator(config);
  EXPECT_FALSE(coordinator.run(nullptr, nullptr, &why));
  EXPECT_NE(why.find("shard file"), std::string::npos) << why;
  fs::remove_all(dir);
}

TEST(Coordinator, RejectsShardsGeneratedFromADifferentConfig) {
  // Workers that silently ran the wrong config (a non-CLI-expressible
  // field lost in translation) merge fine among themselves but must be
  // rejected against the coordinator's own fingerprint.
  const fs::path dir = fresh_dir("coord_fprint");
  ClusterConfig config = stub_cluster(dir, 1);
  fleet::FleetConfig other = config.fleet;
  other.seed = 4242;
  const auto staged = stage_shards(other, 1, dir);
  config.spawn_command = [&staged](const fleet::ShardSpec&, std::uint32_t,
                                   const std::string& out) {
    return std::vector<std::string>{"/bin/sh", "-c",
                                    "cp " + staged[0] + " " + out};
  };

  std::string why;
  Coordinator coordinator(config);
  EXPECT_FALSE(coordinator.run(nullptr, nullptr, &why));
  EXPECT_NE(why.find("fingerprint"), std::string::npos) << why;
  fs::remove_all(dir);
}

}  // namespace
}  // namespace msamp::cluster
