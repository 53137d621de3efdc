// POSIX child-process plumbing for the cluster coordinator: spawn a
// worker with its stdout on a pipe, read heartbeats without blocking,
// reap exits, and kill stalled workers.
//
// This layer also owns the coordinator's only clock, `steady_now_ms` —
// a monotonic wall clock used exclusively for stall detection and retry
// backoff.  Scheduling is execution detail: no timestamp ever reaches
// the dataset bytes, which stay a pure function of (config, seed).  The
// implementation file carries msamp_lint's sole `wallclock_allowed`
// exemption (docs/STATIC_ANALYSIS.md).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace msamp::cluster {

/// Milliseconds on a monotonic clock with an arbitrary epoch.  For
/// timeouts and backoff only — never for data.
std::int64_t steady_now_ms();

/// Absolute path of the running executable (via /proc/self/exe), so the
/// coordinator can re-exec itself in the worker role.  Empty on failure.
std::string self_exe_path();

/// One spawned worker: fork/exec with stdout redirected into a pipe the
/// parent reads non-blockingly.  The child leads its own process group,
/// so a kill reaches every process it started.  The destructor kills and
/// reaps a child that is still running — a dying coordinator never leaks
/// workers.
class ChildProcess {
 public:
  ChildProcess() = default;
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// Starts `argv` (argv[0] is the executable path).  Returns false with
  /// a reason in `*error` when the pipe, fork, or exec setup fails.  An
  /// exec failure inside the child surfaces as exit code 127.
  bool spawn(const std::vector<std::string>& argv, std::string* error);

  /// True between a successful spawn and the reap (try_wait/kill_hard).
  bool running() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }

  /// Pipe read end, for poll(); -1 once the child's stdout reached EOF.
  int stdout_fd() const { return out_fd_; }

  /// Appends whatever the pipe has, without blocking.  Returns false once
  /// the write end closed (child exited) and the pipe drained.
  bool read_available(std::string* buf);

  /// Non-blocking reap.  True when the child exited; `*raw_status`
  /// receives the waitpid status and the handle stops running.  Call
  /// read_available afterwards to drain the last buffered heartbeats.
  bool try_wait(int* raw_status);

  /// SIGKILL to the child's process group + blocking reap of the child;
  /// no-op when not running.
  void kill_hard();

 private:
  void close_pipe();
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

/// True when the waitpid status is a normal exit with code `code`.
bool exited_with(int raw_status, int code);

/// True when the waitpid status is a normal exit with code 0.
bool exited_ok(int raw_status);

/// "exit code N" / "killed by signal N" for log lines.
std::string describe_status(int raw_status);

}  // namespace msamp::cluster
