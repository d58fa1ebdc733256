// egoistd process control for the serving workloads: fork/exec with the
// deployment knobs, the READY handshake, peak memory, and a graceful stop
// that checks the EXIT line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

namespace egoist::bench {

class Daemon {
 public:
  /// Forks and execs `binary` with `args`; returns without waiting. The
  /// child is killed if this process dies first, so no daemon outlives
  /// the run.
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         std::string uds_path);
  /// Kills and reaps a daemon that was never stopped.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Blocks until the daemon prints its READY line; returns the seconds
  /// from fork to READY. Throws std::runtime_error if it exits or stays
  /// silent past `timeout_s`.
  double wait_ready(double timeout_s);

  /// VmHWM of the daemon in MiB; 0 when /proc cannot be read.
  double peak_rss_mb() const;

  /// SIGTERM, then reads the EXIT line and the exit status. Returns an
  /// empty string when the daemon printed drained=1 seal_violations=0 and
  /// exited 0, otherwise what went wrong.
  std::string stop(double timeout_s);

  /// SIGKILL and reap (set-up-only daemons).
  void kill();

  const std::string& uds_path() const { return uds_path_; }

 private:
  /// Reads one line of the daemon's stdout; false on EOF.
  bool read_line(std::string& line, std::uint64_t deadline_ns);

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint64_t spawn_ns_ = 0;
  std::string uds_path_;
};

/// Kills and reaps every daemon still running (the watchdog's last act).
void kill_all_daemons();

}  // namespace egoist::bench
