#include "cluster/process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace msamp::cluster {

std::int64_t steady_now_ms() {
  // The one sanctioned wall-clock read outside the bench harness: stall
  // timeouts and retry backoff need real elapsed time.  This file is the
  // sole `wallclock_allowed` path in msamp_lint for exactly this reason.
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::milliseconds>(now).count();
}

std::string self_exe_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  return std::string(buf);
}

ChildProcess::~ChildProcess() {
  kill_hard();
  close_pipe();
}

void ChildProcess::close_pipe() {
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

bool ChildProcess::spawn(const std::vector<std::string>& argv,
                         std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    return false;
  };
  if (argv.empty()) {
    if (error != nullptr) *error = "empty worker command";
    return false;
  }
  int fds[2];
  if (::pipe(fds) != 0) return fail("pipe");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return fail("fork");
  }
  if (pid == 0) {
    // Child: its own process group, so kill_hard reaches everything it
    // starts.  stdout becomes the heartbeat pipe; stderr stays shared so
    // worker diagnostics land in the coordinator's stderr.
    ::setpgid(0, 0);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  // The parent sets the group too: whichever call runs first creates it,
  // so it exists before kill_hard can signal it.  EACCES after the
  // child's exec only means the child got there first.
  ::setpgid(pid, pid);
  ::close(fds[1]);
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  pid_ = pid;
  out_fd_ = fds[0];
  return true;
}

bool ChildProcess::read_available(std::string* buf) {
  if (out_fd_ < 0) return false;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
    if (n > 0) {
      buf->append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      close_pipe();
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    close_pipe();
    return false;
  }
}

bool ChildProcess::try_wait(int* raw_status) {
  if (pid_ <= 0) return false;
  int status = 0;
  const pid_t r = ::waitpid(pid_, &status, WNOHANG);
  if (r != pid_) return false;
  pid_ = -1;
  if (raw_status != nullptr) *raw_status = status;
  return true;
}

void ChildProcess::kill_hard() {
  if (pid_ <= 0) return;
  // The whole group: a wedged worker's own children die with it.
  ::kill(-pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

bool exited_with(int raw_status, int code) {
  return WIFEXITED(raw_status) && WEXITSTATUS(raw_status) == code;
}

bool exited_ok(int raw_status) { return exited_with(raw_status, 0); }

std::string describe_status(int raw_status) {
  if (WIFEXITED(raw_status)) {
    return "exit code " + std::to_string(WEXITSTATUS(raw_status));
  }
  if (WIFSIGNALED(raw_status)) {
    return "killed by signal " + std::to_string(WTERMSIG(raw_status));
  }
  return "status " + std::to_string(raw_status);
}

}  // namespace msamp::cluster
