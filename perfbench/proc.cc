#include "proc.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>

#include "trace.h"

extern char** environ;

namespace msamp::perfbench {
namespace {

// The child being waited for, read by the SIGALRM handler.
volatile sig_atomic_t g_timeout_pgid = 0;
volatile sig_atomic_t g_timed_out = 0;
std::int64_t g_deadline_ns = 0;  // 0: none
constexpr double kChildTimeoutS = 170.0;

void on_alarm(int) {
  if (g_timeout_pgid > 0) ::kill(-g_timeout_pgid, SIGKILL);
  g_timed_out = 1;
}

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

[[noreturn]] void exec_child(const Command& cmd,
                             const std::vector<char*>& argv,
                             const std::vector<char*>& envp) {
  ::setpgid(0, 0);
  const int out = ::open(cmd.stdout_path.c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  const int err = ::open(cmd.stderr_path.c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (out < 0 || err < 0 || ::dup2(out, 1) < 0 || ::dup2(err, 2) < 0 ||
      ::chdir(cmd.cwd.c_str()) != 0) {
    ::_exit(126);
  }
  ::execve(argv[0], argv.data(), envp.data());
  ::_exit(127);
}

}  // namespace

bool Exec::ok() const {
  return !timed_out && status >= 0 && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0;
}

std::string Exec::describe() const {
  if (timed_out) return "timed out";
  if (status < 0) return "did not start";
  if (WIFEXITED(status)) return "exit " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status)) return "signal " + std::to_string(WTERMSIG(status));
  return "status " + std::to_string(status);
}

void set_deadline_ns(std::int64_t deadline) { g_deadline_ns = deadline; }

void adopt_orphans() { ::prctl(PR_SET_CHILD_SUBREAPER, 1); }

Exec run(const Command& cmd) {
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) env_strings.emplace_back(*e);
  for (const std::string& kv : cmd.env) {
    const std::string name = kv.substr(0, kv.find('=') + 1);
    std::erase_if(env_strings, [&](const std::string& s) {
      return s.compare(0, name.size(), name) == 0;
    });
    env_strings.push_back(kv);
  }
  std::vector<char*> argv, envp;
  for (const std::string& a : cmd.argv) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  for (std::string& e : env_strings) envp.push_back(e.data());
  envp.push_back(nullptr);

  struct sigaction sa {};
  sa.sa_handler = on_alarm;  // no SA_RESTART: wait4 returns EINTR
  ::sigaction(SIGALRM, &sa, nullptr);
  std::fflush(nullptr);
  // Write back what earlier children left dirty, so it never lands in this
  // child's time.  Without it, a 3 ms zero-work msampctl invocation right
  // after a cluster execution took 3 to 14 ms on a 4-core VM.
  ::sync();

  Exec ex;
  double timeout_s = kChildTimeoutS;
  if (g_deadline_ns != 0) {
    timeout_s = std::min(timeout_s, static_cast<double>(g_deadline_ns - steady_ns()) * 1e-9);
  }
  if (timeout_s < 1.0) {
    ex.timed_out = true;
    return ex;
  }
  const std::int64_t t0 = steady_ns();
  const pid_t pid = ::fork();
  if (pid < 0) return ex;
  if (pid == 0) exec_child(cmd, argv, envp);
  ::setpgid(pid, pid);  // also set by the child; whichever runs first wins
  g_timed_out = 0;
  g_timeout_pgid = pid;
  ::alarm(static_cast<unsigned>(timeout_s));
  rusage ru{};
  int status = 0;
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  const std::int64_t t1 = steady_ns();
  ::alarm(0);
  g_timeout_pgid = 0;
  // Sweep up anything the child left running in its group (a coordinator
  // that died before its workers), then wait for whatever was re-parented
  // here.  Runs are serial, so no other child of ours can be alive.
  ::kill(-pid, SIGKILL);
  while (::waitpid(-1, nullptr, 0) > 0 || errno == EINTR) {
  }
  ex.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  ex.cpu_s = seconds(ru.ru_utime) + seconds(ru.ru_stime);
  ex.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  ex.status = status;
  ex.timed_out = g_timed_out != 0;
  return ex;
}

}  // namespace msamp::perfbench
