#include "daemon.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench_util.hpp"

namespace egoist::bench {

namespace {

std::mutex g_live_mutex;
std::vector<pid_t> g_live;  ///< guarded by g_live_mutex

void track(pid_t pid) {
  const std::lock_guard<std::mutex> lock(g_live_mutex);
  g_live.push_back(pid);
}

void untrack(pid_t pid) {
  const std::lock_guard<std::mutex> lock(g_live_mutex);
  g_live.erase(std::remove(g_live.begin(), g_live.end(), pid), g_live.end());
}

/// "key=value" token of a daemon status line ("" when absent).
std::string field(const std::string& line, const std::string& key) {
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    if (token.size() > key.size() && token.compare(0, key.size(), key) == 0 &&
        token[key.size()] == '=') {
      return token.substr(key.size() + 1);
    }
  }
  return "";
}

}  // namespace

Daemon::Daemon(const std::string& binary, const std::vector<std::string>& args,
               std::string uds_path)
    : uds_path_(std::move(uds_path)) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    throw std::runtime_error("pipe: " + std::string(std::strerror(errno)));
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);

  spawn_ns_ = now_ns();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    throw std::runtime_error("fork: " + std::string(std::strerror(errno)));
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    ::execv(binary.c_str(), argv.data());
    ::perror("execv egoistd");
    ::_exit(127);
  }
  pid_ = pid;
  track(pid_);
  ::close(pipe_fds[1]);
  out_fd_ = pipe_fds[0];
  ::fcntl(out_fd_, F_SETFL, ::fcntl(out_fd_, F_GETFL, 0) | O_NONBLOCK);
}

Daemon::~Daemon() {
  kill();
  if (out_fd_ >= 0) ::close(out_fd_);
}

bool Daemon::read_line(std::string& line, std::uint64_t deadline_ns) {
  line.clear();
  for (;;) {
    char c = 0;
    const ssize_t got = ::read(out_fd_, &c, 1);
    if (got == 1) {
      if (c == '\n') return true;
      line.push_back(c);
      continue;
    }
    if (got == 0) return false;
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      throw std::runtime_error("reading egoistd stdout: " +
                               std::string(std::strerror(errno)));
    }
    const std::uint64_t now = now_ns();
    if (now >= deadline_ns) {
      throw std::runtime_error("timed out waiting for egoistd output");
    }
    struct pollfd pfd = {out_fd_, POLLIN, 0};
    ::poll(&pfd, 1, static_cast<int>(std::min<std::uint64_t>(
                        (deadline_ns - now) / 1000000 + 1, 1000)));
  }
}

double Daemon::wait_ready(double timeout_s) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_s * 1e9);
  std::string line;
  for (;;) {
    if (!read_line(line, deadline)) {
      throw std::runtime_error("egoistd exited before READY");
    }
    if (line.rfind("EGOISTD READY", 0) == 0) {
      return static_cast<double>(now_ns() - spawn_ns_) * 1e-9;
    }
  }
}

double Daemon::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::string Daemon::stop(double timeout_s) {
  if (pid_ < 0) return "egoistd was not running";
  ::kill(pid_, SIGTERM);
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_s * 1e9);
  std::string problem;
  std::string line;
  try {
    for (;;) {
      if (!read_line(line, deadline)) {
        problem = "egoistd closed stdout without an EXIT line";
        break;
      }
      if (line.rfind("EGOISTD EXIT", 0) == 0) {
        if (field(line, "drained") != "1" ||
            field(line, "seal_violations") != "0") {
          problem = "egoistd reported '" + line + "'";
        }
        break;
      }
    }
  } catch (const std::exception& e) {
    problem = e.what();
    ::kill(pid_, SIGKILL);
  }
  int status = 0;
  ::waitpid(pid_, &status, 0);
  untrack(pid_);
  pid_ = -1;
  if (problem.empty() && !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
    problem = "egoistd exit status " + std::to_string(status);
  }
  ::unlink(uds_path_.c_str());
  return problem;
}

void Daemon::kill() {
  if (pid_ < 0) return;
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  untrack(pid_);
  pid_ = -1;
  ::unlink(uds_path_.c_str());
}

void kill_all_daemons() {
  const std::lock_guard<std::mutex> lock(g_live_mutex);
  for (const pid_t pid : g_live) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
  g_live.clear();
}

}  // namespace egoist::bench
