// serve_remote: the serving bench — spawns egoistd and hammers it over
// loopback TCP and a Unix-domain socket, and serves the same workload
// in-process for comparison.
//
// The `transports` knob lists the legs: `uds` and `tcp` go through
// daemons, `inproc` through a host::RouteService in this process. Daemons
// are spawned only when a socket transport is listed: one process per
// `loops` value (the egoistd binary next to this one, or knob
// `egoistd-bin`), configured with exactly the deployment knobs this
// scenario carries — the deployment builder is shared
// (exp/serve_workload.hpp), so each daemon's overlay is bit-identical to
// the local overlay this process deploys. After a daemon's "EGOISTD
// READY" handshake, each (socket transport × mix × mode) triple gets one
// serving window: `readers` client threads, each with its own
// rpc::Client, replay the serving workload — hot source pool, zipf or
// uniform destinations — while the daemon keeps churning
// epochs on its side of the socket. Mode `pipeline` posts `pipeline-depth`
// single ROUTE frames per burst; mode `batch` (knob `batch`) ships the
// same depth as ONE BATCH_ROUTE frame — one header decode and one send
// per direction instead of depth of each. Per-request latency is stamped
// at flush() and measured at each take_*() (the honest pipelined number:
// full round trip including queueing behind the batch).
//
// The per_loop_qps column splits a window's answer rate across the
// daemon's event loops (per-loop frames_out deltas from the v2 STATS
// breakdown, scaled by depth for batch windows) — the direct read on
// whether loop 0's round-robin accept path, one for TCP and UDS alike,
// actually spreads the load.
//
// Each daemon is SIGTERMed after its windows and must exit 0 after
// proving RouteService::drain — the "daemon" table carries one row per
// daemon (loops, host_cpus, exit code, drain flag, transport counters).
// With `inproc` listed, the same workload then runs in-process against the
// local overlay (exp::run_inproc_window) while its host thread keeps
// running churned epochs that publish snapshots through the RCU swap: one
// inproc row per mix beside the socket rows, the cost of the wire. CI
// gates on these tables (qps floors, loop scaling, decode_errors == 0,
// seal_violations == 0, clean exit).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "exp/common.hpp"
#include "exp/experiments/experiments.hpp"
#include "exp/serve_workload.hpp"
#include "host/route_service.hpp"
#include "rpc/client.hpp"
#include "util/stats.hpp"

namespace egoist::exp {

namespace {

/// The spawned daemon: pid plus the read end of its stdout.
struct Daemon {
  pid_t pid = -1;
  int out_fd = -1;
  int tcp_port = -1;
  std::string uds_path;
  int loops = 1;
};

std::string self_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  std::string path(buf);
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

Daemon spawn_daemon(const std::string& binary,
                    const std::vector<std::string>& args) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    throw std::runtime_error("pipe failed: " + std::string(strerror(errno)));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error("fork failed: " + std::string(strerror(errno)));
  }
  if (pid == 0) {
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    // exec failed; the parent sees EOF before READY and reports it.
    ::perror("execv egoistd");
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  // Nonblocking read end: read_line polls with a deadline instead of
  // hanging forever on a silent daemon.
  ::fcntl(pipe_fds[0], F_SETFL,
          ::fcntl(pipe_fds[0], F_GETFL, 0) | O_NONBLOCK);
  Daemon daemon;
  daemon.pid = pid;
  daemon.out_fd = pipe_fds[0];
  return daemon;
}

void kill_daemon(Daemon& daemon) {
  if (daemon.pid < 0) return;
  ::kill(daemon.pid, SIGKILL);
  ::waitpid(daemon.pid, nullptr, 0);
  ::close(daemon.out_fd);
  daemon.pid = -1;
}

/// Reads one '\n'-terminated line from the daemon's stdout, waiting up to
/// the deadline. Returns false on EOF (daemon died).
bool read_line(int fd, std::string& line,
               std::chrono::steady_clock::time_point deadline) {
  line.clear();
  char c;
  for (;;) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n == 1) {
      if (c == '\n') return true;
      line.push_back(c);
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        throw std::runtime_error("timed out waiting for egoistd output");
      }
      struct pollfd pfd = {fd, POLLIN, 0};
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - now);
      ::poll(&pfd, 1, static_cast<int>(std::min<long long>(
                          left.count(), 1000)));
      continue;
    }
    throw std::runtime_error("reading egoistd output: " +
                             std::string(strerror(errno)));
  }
}

/// "key=value" token scan over a daemon status line.
std::string line_field(const std::string& line, const std::string& key) {
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    if (token.size() > key.size() + 1 &&
        token.compare(0, key.size(), key) == 0 && token[key.size()] == '=') {
      return token.substr(key.size() + 1);
    }
  }
  return "";
}

/// One remote serving window: `readers` threads of ROUTE lookups — depth
/// pipelined single frames per burst, or one BATCH_ROUTE frame carrying
/// the depth when batch_mode is set.
WindowResult run_remote_window(const std::string& transport,
                               const std::string& host, int tcp_port,
                               const std::string& uds_path,
                               std::span<const overlay::NodeId> pool,
                               bool zipf, double zipf_exponent, std::size_t n,
                               int readers, int depth, bool batch_mode,
                               double duration_s, std::uint64_t seed,
                               std::size_t window) {
  const ZipfSampler zipf_sampler(zipf ? n : 1, zipf_exponent);

  struct ClientTally {
    util::LatencyHistogram latency;
    std::uint64_t queries = 0;
    std::uint64_t unreachable = 0;
    std::string error;
  };

  std::atomic<bool> stop{false};
  std::vector<ClientTally> tallies(static_cast<std::size_t>(readers));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(readers));
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      auto& tally = tallies[static_cast<std::size_t>(r)];
      try {
        rpc::Client client =
            transport == "uds" ? rpc::Client::connect_uds(uds_path)
                               : rpc::Client::connect_tcp(host, tcp_port);
        util::Rng rng(seed ^ (window * 1000 +
                              17 * static_cast<std::size_t>(r) + 1));
        const auto n_id = static_cast<std::int64_t>(n);
        const auto draw_src = [&] {
          return pool[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(pool.size()) - 1))];
        };
        const auto draw_dst = [&] {
          return zipf ? zipf_sampler.draw(rng)
                      : static_cast<overlay::NodeId>(
                            rng.uniform_int(0, n_id - 1));
        };
        std::vector<wire::BatchRoutePair> pairs;
        while (!stop.load(std::memory_order_relaxed)) {
          if (batch_mode) {
            pairs.clear();
            for (int i = 0; i < depth; ++i) {
              pairs.push_back({draw_src(), draw_dst()});
            }
            client.post_route_batch(pairs);
            client.flush();
            const auto sent = std::chrono::steady_clock::now();
            const auto resp = client.take_route_batch();
            // One frame answered the whole burst; every lookup in it paid
            // the same round trip.
            const auto ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - sent)
                    .count();
            for (const auto& entry : resp.entries) {
              tally.latency.record(static_cast<std::uint64_t>(ns));
              ++tally.queries;
              if (!entry.reachable) ++tally.unreachable;
            }
          } else {
            for (int i = 0; i < depth; ++i) {
              client.post_route(draw_src(), draw_dst());
            }
            client.flush();
            // Every request in the batch left the socket at flush time,
            // so each take measures its full pipelined round trip.
            const auto sent = std::chrono::steady_clock::now();
            for (int i = 0; i < depth; ++i) {
              const auto resp = client.take_route();
              const auto ns =
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - sent)
                      .count();
              tally.latency.record(static_cast<std::uint64_t>(ns));
              ++tally.queries;
              if (!resp.reachable) ++tally.unreachable;
            }
          }
        }
      } catch (const std::exception& e) {
        tally.error = e.what();
        stop.store(true, std::memory_order_relaxed);
      }
    });
  }

  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
                 .count() < duration_s &&
         !stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& thread : threads) thread.join();

  WindowResult result;
  result.elapsed_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  for (const auto& tally : tallies) {
    if (!tally.error.empty()) {
      throw std::runtime_error("remote window (" + transport +
                               "): " + tally.error);
    }
    result.latency.merge(tally.latency);
    result.queries += tally.queries;
    result.unreachable += tally.unreachable;
  }
  return result;
}

std::string format_us(double nanos) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(2) << nanos / 1000.0;
  return out.str();
}

std::string format_fixed(double value, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << value;
  return out.str();
}

/// "qps0/qps1/..." — the window's answer rate split across the daemon's
/// loops, from the v2 per-loop frames_out deltas. Batch windows answer
/// `depth` lookups per frame, hence the scale factor. Approximate by a
/// couple of frames (the control client's own STATS traffic lands on one
/// loop) — telemetry, not an invariant.
std::string per_loop_qps_column(const wire::StatsResponse& before,
                                const wire::StatsResponse& after,
                                std::uint64_t per_frame, double elapsed_s) {
  if (after.per_loop.empty() ||
      after.per_loop.size() != before.per_loop.size() || elapsed_s <= 0.0) {
    return "-";
  }
  std::string out;
  for (std::size_t i = 0; i < after.per_loop.size(); ++i) {
    const std::uint64_t frames =
        after.per_loop[i].frames_out - before.per_loop[i].frames_out;
    if (i > 0) out += "/";
    out += format_fixed(
        static_cast<double>(frames * per_frame) / elapsed_s, 0);
  }
  return out;
}

}  // namespace

void run_serve_remote(const ParamReader& params, ResultSink& sink) {
  const int readers = params.get_int("readers", 4);
  if (readers < 1) throw std::invalid_argument("readers must be >= 1");
  const double duration_s = params.get_double("duration", 2.0);
  if (duration_s <= 0.0) throw std::invalid_argument("duration must be > 0");
  const auto mixes = split_csv(params.get_string("mix", "zipf,uniform"));
  for (const auto& mix : mixes) {
    if (mix != "zipf" && mix != "uniform") {
      throw std::invalid_argument("mix must be zipf or uniform, got " + mix);
    }
  }
  const std::string transports_text =
      params.get_string("transports", "uds,tcp,inproc");
  std::vector<std::string> transports;  // the socket legs
  bool inproc = false;
  for (const auto& transport : split_csv(transports_text)) {
    if (transport == "inproc") {
      inproc = true;
    } else if (transport == "uds" || transport == "tcp") {
      transports.push_back(transport);
    } else {
      throw std::invalid_argument(
          "transports must be uds, tcp or inproc, got " + transport);
    }
  }
  if (mixes.empty() || (transports.empty() && !inproc)) {
    throw std::invalid_argument("empty mix or transports list");
  }
  const auto loops_list = params.get_int_list("loops", "1");
  for (const int value : loops_list) {
    if (value < 0 || value > 64) {
      throw std::invalid_argument("loops must be in [0, 64], got " +
                                  std::to_string(value));
    }
  }
  const bool batch = params.get_bool("batch", true);
  std::vector<std::string> modes{"pipeline"};
  if (batch) modes.push_back("batch");
  const double zipf_exponent = params.get_double("zipf-exponent", 0.9);
  const int sources = params.get_int("sources", 8);
  if (sources < 1) throw std::invalid_argument("sources must be >= 1");
  const int max_epochs = params.get_int("max-epochs", 64);
  if (max_epochs < 1) throw std::invalid_argument("max-epochs must be >= 1");
  const int depth = params.get_int("pipeline-depth", 16);
  if (depth < 1) throw std::invalid_argument("pipeline-depth must be >= 1");
  const double ready_timeout_s = params.get_double("ready-timeout", 300.0);
  std::string egoistd_bin = params.get_string("egoistd-bin", "");
  if (egoistd_bin.empty()) {
    // Beside this binary (the bench layout), else the sibling bench/
    // directory (in-process callers like the registry smoke test).
    egoistd_bin = self_dir() + "/egoistd";
    if (::access(egoistd_bin.c_str(), X_OK) != 0) {
      const auto sibling = self_dir() + "/../bench/egoistd";
      if (::access(sibling.c_str(), X_OK) == 0) egoistd_bin = sibling;
    }
  }
  // A missing daemon would only show as an early EOF after the fork.
  if (!transports.empty() && ::access(egoistd_bin.c_str(), X_OK) != 0) {
    throw std::runtime_error("egoistd not found or not executable: " +
                             egoistd_bin + " (build the egoistd target)");
  }

  // Each daemon keeps churning across every one of its remote windows, so
  // its churn trace must cover the worst case; the local overlay runs at
  // most one window per mix on top.
  const int windows_per_daemon =
      static_cast<int>(transports.size() * mixes.size() * modes.size());
  const int inproc_windows = static_cast<int>(inproc ? mixes.size() : 0);
  const auto deployment = read_serve_deployment(
      params,
      static_cast<double>(windows_per_daemon + inproc_windows) * max_epochs);
  const std::size_t n = deployment.n;

  // Daemon args: listeners + epoch bound + the forwarded deployment
  // knobs; --loops is per daemon, appended at spawn.
  std::vector<std::string> base_args{
      "--listen", "127.0.0.1:0", "--max-epochs",
      std::to_string(windows_per_daemon * max_epochs)};
  for (const char* key : serve_deployment_keys()) {
    if (const auto* value = params.spec().find(key)) {
      base_args.push_back("--" + std::string(key) + "=" + *value);
    }
  }

  // Spawn every daemon first (fork while this process is still small, and
  // the warmups overlap), then deploy the local overlay while they build
  // theirs.
  std::vector<Daemon> daemons;
  ServingOverlay serving;
  try {
    // Daemons serve the socket legs only.
    const std::size_t daemon_count = transports.empty() ? 0 : loops_list.size();
    for (std::size_t d = 0; d < daemon_count; ++d) {
      const std::string uds_path = "/tmp/egoistd-" +
                                   std::to_string(::getpid()) + "-l" +
                                   std::to_string(loops_list[d]) + ".sock";
      auto args = base_args;
      args.push_back("--uds");
      args.push_back(uds_path);
      args.push_back("--loops");
      args.push_back(std::to_string(loops_list[d]));
      daemons.push_back(spawn_daemon(egoistd_bin, args));
    }
    serving = deploy_serving_overlay(deployment);
  } catch (...) {
    for (auto& daemon : daemons) kill_daemon(daemon);
    throw;
  }

  host::OverlayHost& local_host = *serving.host;
  const auto handle = serving.handle;

  sink.section(
      "serve remote: egoistd n=" + std::to_string(n) + " over " +
          transports_text + ", loops " + params.get_string("loops", "1"),
      std::to_string(readers) + " client thread(s), depth " +
          std::to_string(depth) + ", hammer one spawned egoistd daemon per "
          "loops value with the serving workload (hot pool of " +
          std::to_string(sources) + " sources, " +
          params.get_string("mix", "zipf,uniform") + " destination mix) "
          "while it churns epochs behind the socket; mode pipeline posts "
          "depth single ROUTE frames per burst, mode batch ships the same "
          "depth as one BATCH_ROUTE frame. Latency is the full round trip "
          "in microseconds; per_loop_qps splits the answer rate across the "
          "daemon's event loops. The inproc rows replay the identical "
          "workload against an in-process RouteService on a bit-identical "
          "local overlay — the cost of the wire.");

  util::Table table({"transport", "mix", "loops", "mode", "n", "clients",
                     "depth", "duration_s", "epochs", "queries", "qps",
                     "per_loop_qps", "p50_us", "p99_us", "p999_us", "max_us",
                     "unreachable", "decode_errors", "error_responses",
                     "seal_violations"});

  const auto add_row = [&](const std::string& transport,
                           const std::string& mix, const std::string& loops,
                           const std::string& mode, int row_depth,
                           const WindowResult& window,
                           const std::string& per_loop_qps,
                           std::uint64_t epochs, std::uint64_t decode_errors,
                           std::uint64_t error_responses,
                           std::uint64_t seal_violations) {
    table.add_row(
        {transport, mix, loops, mode, std::to_string(n),
         std::to_string(readers), std::to_string(row_depth),
         format_fixed(window.elapsed_s, 2), std::to_string(epochs),
         std::to_string(window.queries),
         format_fixed(static_cast<double>(window.queries) / window.elapsed_s,
                      0),
         per_loop_qps,
         format_us(window.latency.count() ? window.latency.p50() : 0.0),
         format_us(window.latency.count() ? window.latency.p99() : 0.0),
         format_us(window.latency.count() ? window.latency.p999() : 0.0),
         format_us(static_cast<double>(window.latency.max_recorded())),
         std::to_string(window.unreachable), std::to_string(decode_errors),
         std::to_string(error_responses), std::to_string(seal_violations)});
  };

  util::Table daemon_table(
      {"loops", "host_cpus", "exit_code", "drained", "epochs",
       "connections_accepted", "frames_in", "frames_out", "batches",
       "bytes_in", "bytes_out", "decode_errors", "error_responses",
       "idle_closed", "seal_violations"});
  const unsigned host_cpus = std::thread::hardware_concurrency();

  std::size_t window_index = 0;
  try {
    for (auto& daemon : daemons) {
      // READY handshake: the daemon's overlay is warmed and listeners live.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(ready_timeout_s));
      std::string line;
      for (;;) {
        if (!read_line(daemon.out_fd, line, deadline)) {
          throw std::runtime_error("egoistd exited before READY (" +
                                   egoistd_bin + ")");
        }
        if (line.rfind("EGOISTD READY", 0) == 0) break;
      }
      daemon.tcp_port = std::stoi(line_field(line, "tcp"));
      daemon.uds_path = line_field(line, "uds");
      daemon.loops = std::stoi(line_field(line, "loops"));
      if (line_field(line, "n") != std::to_string(n)) {
        throw std::runtime_error("egoistd deployed a different n: " + line);
      }
      const std::string loops_text = std::to_string(daemon.loops);

      // Control client for the daemon's counters (UDS when available).
      rpc::Client control =
          !daemon.uds_path.empty() && daemon.uds_path != "-"
              ? rpc::Client::connect_uds(daemon.uds_path)
              : rpc::Client::connect_tcp("127.0.0.1", daemon.tcp_port);

      for (const auto& transport : transports) {
        for (const auto& mix : mixes) {
          for (const auto& mode : modes) {
            const auto pool =
                hot_source_pool(local_host.snapshot(handle),
                                deployment.config.seed, window_index,
                                static_cast<std::size_t>(sources));
            const bool batch_mode = mode == "batch";
            const auto before = control.stats();
            const auto window = run_remote_window(
                transport, "127.0.0.1", daemon.tcp_port, daemon.uds_path,
                pool, mix == "zipf", zipf_exponent, n, readers, depth,
                batch_mode, duration_s, deployment.config.seed,
                window_index);
            const auto after = control.stats();
            add_row(transport, mix, loops_text, mode, depth, window,
                    per_loop_qps_column(
                        before, after,
                        batch_mode ? static_cast<std::uint64_t>(depth) : 1,
                        window.elapsed_s),
                    after.publish_seq - before.publish_seq,
                    after.decode_errors - before.decode_errors,
                    after.error_responses - before.error_responses,
                    after.seal_violations);
            ++window_index;
          }
        }
      }
      const auto final_stats = control.stats();

      // Graceful shutdown: SIGTERM, then the EXIT line and exit status.
      ::kill(daemon.pid, SIGTERM);
      std::string exit_line;
      {
        const auto exit_deadline = std::chrono::steady_clock::now() +
                                   std::chrono::seconds(60);
        std::string exit_scan;
        try {
          while (read_line(daemon.out_fd, exit_scan, exit_deadline)) {
            if (exit_scan.rfind("EGOISTD EXIT", 0) == 0) {
              exit_line = exit_scan;
            }
          }
        } catch (const std::exception&) {
          // Timeout reading EXIT: fall through to waitpid, report status.
        }
      }
      ::close(daemon.out_fd);
      int status = 0;
      ::waitpid(daemon.pid, &status, 0);
      const int exit_code =
          WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
      daemon.pid = -1;

      const auto exit_field = [&](const std::string& key) {
        const auto value = line_field(exit_line, key);
        return value.empty() ? std::string("-1") : value;  // line missing
      };
      daemon_table.add_row(
          {loops_text, std::to_string(host_cpus), std::to_string(exit_code),
           exit_field("drained"), exit_field("epochs"),
           std::to_string(final_stats.connections_accepted),
           std::to_string(final_stats.frames_in),
           std::to_string(final_stats.frames_out),
           std::to_string(final_stats.batches),
           std::to_string(final_stats.bytes_in),
           std::to_string(final_stats.bytes_out),
           std::to_string(final_stats.decode_errors),
           std::to_string(final_stats.error_responses),
           std::to_string(final_stats.idle_closed),
           std::to_string(final_stats.seal_violations)});
    }
  } catch (...) {
    for (auto& daemon : daemons) kill_daemon(daemon);
    throw;
  }

  // The in-process leg on the bit-identical local overlay.
  if (inproc) {
    for (const auto& mix : mixes) {
      const auto pool =
          hot_source_pool(local_host.snapshot(handle), deployment.config.seed,
                          window_index, static_cast<std::size_t>(sources));
      host::RouteService service(local_host, handle,
                                 deployment.service_options);
      const auto window = run_inproc_window(
          local_host, handle, service, pool, mix == "zipf", zipf_exponent, n,
          readers, duration_s, max_epochs, deployment.config.seed,
          window_index);
      service.reclaim();
      const auto stats = service.stats();
      add_row("inproc", mix, "0", "inproc", 0, window, "-",
              static_cast<std::uint64_t>(window.epochs), 0, 0,
              stats.seal_violations);
      ++window_index;
    }
  }

  sink.table("serve_remote", table);
  if (!daemons.empty()) sink.table("daemon", daemon_table);
}

}  // namespace egoist::exp
