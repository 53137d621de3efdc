// Child processes timed from outside: fork/exec, wait4 rusage, timeouts.
//
// CPU time and peak RSS come from the rusage wait4 returns, which folds in
// every descendant the child itself waited for (cluster workers, for one),
// so a coordinator's figures cover its whole process tree.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace msamp::perfbench {

/// How one child process ended and what it cost.
struct Exec {
  double wall_s = 0.0;     ///< spawn to reap, steady clock
  double cpu_s = 0.0;      ///< user + sys, waited-for descendants included
  double maxrss_mb = 0.0;  ///< largest resident set in the process tree, MiB
  int status = -1;         ///< raw wait status; -1 if it never ran
  bool timed_out = false;

  bool ok() const;
  /// "exit 3", "signal 9", "timed out after 120 s", ...
  std::string describe() const;
};

/// One program invocation: argv, working directory, extra environment
/// entries ("NAME=value", added to the inherited environment), and where
/// its stdout/stderr go.
struct Command {
  std::vector<std::string> argv;
  std::filesystem::path cwd = ".";
  std::vector<std::string> env;
  std::filesystem::path stdout_path = "/dev/null";
  std::filesystem::path stderr_path = "/dev/null";
};

/// Caps every later `run` at this steady_ns() time, whatever its own
/// timeout, so a hung child cannot push the whole run past its budget.
void set_deadline_ns(std::int64_t deadline);

/// Makes this process the reaper of orphaned descendants, so `run` can
/// collect anything a crashed child leaves behind.  Call once at startup.
void adopt_orphans();

/// Runs `cmd` to completion in its own process group and reports its cost.
/// Dirty pages are written back (sync) before the clock starts.  A child
/// gets at most 170 s (less when the deadline is nearer); on timeout the
/// whole group is killed.  After the child is reaped, any
/// process left in its group is killed and reaped too, so nothing started
/// here outlives the call.  Not for concurrent use: it reaps every child.
Exec run(const Command& cmd);

}  // namespace msamp::perfbench
