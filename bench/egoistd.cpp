// egoistd — the out-of-process route-serving daemon.
//
// Deploys one serving overlay (the serve_remote deployment:
// BR in §5 scale mode, churned, warmed up), attaches a host::RouteService,
// and serves wire-protocol queries over TCP and/or a Unix-domain socket
// through an rpc::Server while the main thread keeps driving epochs — the
// whole serving stack in one process, queried from any other.
//
// Daemon flags (--listen / --uds / --max-frame / --idle-timeout / ...)
// configure the transport; every OTHER --key=value flag is an overlay knob
// override layered onto the optional --scenario file, read with the same
// typo safety as the experiment driver (unknown knobs fail loudly with a
// closest-name hint). serve_remote spawns this binary and forwards its own
// deployment knobs, so daemon and bench hold bit-identical overlays.
//
// Startup handshake: once the listeners are live the daemon prints ONE
// line to stdout —
//
//   EGOISTD READY pid=<pid> n=<n> tcp=<port|-1> uds=<path|-> loops=<count>
//
// — and a spawner may connect. Shutdown: SIGTERM/SIGINT stop the epoch
// loop, the server drains queued responses and closes (rpc::Server::stop),
// and RouteService::drain proves every pinned snapshot was released before
// the daemon prints
//
//   EGOISTD EXIT epochs=<count> drained=<0|1> seal_violations=<count>
//
// and exits 0 (clean) or 3 (drain failed / seal violation).
#include <csignal>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include <unistd.h>

#include "exp/params.hpp"
#include "exp/scenario.hpp"
#include "exp/serve_workload.hpp"
#include "host/route_service.hpp"
#include "rpc/server.hpp"
#include "util/flags.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

bool is_daemon_flag(const std::string& name) {
  return name == "scenario" || name == "listen" || name == "uds" ||
         name == "max-frame" || name == "idle-timeout" ||
         name == "drain-deadline" || name == "drain-timeout" ||
         name == "max-connections" || name == "max-epochs" ||
         name == "epoch-interval" || name == "loops" || name == "help";
}

/// "--listen PORT" or "--listen HOST:PORT"; empty disables TCP.
void parse_listen(const std::string& listen, egoist::rpc::ServerOptions& options) {
  if (listen.empty()) return;
  const auto colon = listen.rfind(':');
  std::string port_text = listen;
  if (colon != std::string::npos) {
    options.tcp_host = listen.substr(0, colon);
    port_text = listen.substr(colon + 1);
  }
  try {
    options.tcp_port = std::stoi(port_text);
  } catch (const std::exception&) {
    throw std::invalid_argument("bad --listen '" + listen +
                                "' (expected PORT or HOST:PORT)");
  }
  if (options.tcp_port < 0 || options.tcp_port > 65535) {
    throw std::invalid_argument("bad --listen port " + port_text);
  }
}

int run(int argc, char** argv) {
  const egoist::util::Flags flags(argc, argv);

  const std::string scenario_file = flags.get_string("scenario", "");
  egoist::rpc::ServerOptions server_options;
  parse_listen(flags.get_string("listen", ""), server_options);
  server_options.uds_path = flags.get_string("uds", "");
  server_options.max_frame =
      static_cast<std::size_t>(flags.get_size("max-frame", "1M"));
  server_options.idle_timeout_s = flags.get_duration("idle-timeout", "60s");
  server_options.drain_deadline_s = flags.get_duration("drain-deadline", "2s");
  server_options.max_connections = flags.get_int("max-connections", 512);
  server_options.loops = flags.get_int("loops", 1);
  const int max_epochs = flags.get_int("max-epochs", 512);
  const double epoch_interval_s = flags.get_duration("epoch-interval", "0s");
  const double drain_timeout_s = flags.get_duration("drain-timeout", "5s");

  if (flags.help_requested()) {
    std::cout
        << "egoistd: route-serving daemon — deploys a churned BR overlay,\n"
           "drives epochs, and answers wire-protocol ROUTE/PATH/SCORE/\n"
           "STATS/PING frames over TCP (--listen) and/or a Unix-domain\n"
           "socket (--uds). Prints 'EGOISTD READY ...' on stdout once the\n"
           "listeners are live; SIGTERM/SIGINT shut down gracefully.\n\n"
        << flags.usage()
        << "\nAny other --key=value flag is an overlay knob (n, k, policy,\n"
           "seed, warmup, churn, ... — the serve_remote deployment set),\n"
           "layered over the optional --scenario file.\n";
    return 0;
  }
  if (server_options.tcp_port < 0 && server_options.uds_path.empty()) {
    throw std::invalid_argument(
        "nothing to serve: pass --listen PORT (0 = ephemeral) and/or "
        "--uds PATH");
  }
  if (max_epochs < 0) throw std::invalid_argument("max-epochs must be >= 0");

  // Overlay knobs: optional scenario file plus every non-daemon flag.
  egoist::exp::ScenarioSpec spec;
  spec.name = "egoistd";
  if (!scenario_file.empty()) {
    spec = egoist::exp::load_scenario_file(scenario_file);
  }
  for (const auto& [key, value] : flags.consume_all()) {
    if (!is_daemon_flag(key)) spec.set(key, value);
  }

  const egoist::exp::ParamReader params(spec);
  const auto deployment = egoist::exp::read_serve_deployment(
      params, static_cast<double>(max_epochs == 0 ? 4096 : max_epochs));
  params.finish();

  std::cerr << "egoistd: deploying n=" << deployment.n
            << " warmup=" << deployment.warmup << " ..." << std::endl;
  auto serving = egoist::exp::deploy_serving_overlay(deployment);
  egoist::host::RouteService service(*serving.host, serving.handle,
                                     deployment.service_options);
  egoist::rpc::Server server(service, server_options);

  struct sigaction action = {};
  action.sa_handler = &on_signal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  server.start();
  std::cout << "EGOISTD READY pid=" << ::getpid() << " n=" << deployment.n
            << " tcp=" << server.tcp_port() << " uds="
            << (server_options.uds_path.empty() ? "-"
                                                : server_options.uds_path)
            << " loops=" << server.loops() << std::endl;

  // The serving loop: churned epochs publish snapshots under the event
  // loop until a signal arrives (or max-epochs ran; then idle-serve).
  int epochs = 0;
  while (!g_stop) {
    if (max_epochs == 0 || epochs < max_epochs) {
      serving.host->run_epochs(serving.handle, 1);
      ++epochs;
      if (epoch_interval_s > 0.0) {
        ::usleep(static_cast<useconds_t>(epoch_interval_s * 1e6));
      }
    } else {
      ::usleep(50000);
    }
  }

  std::cerr << "egoistd: signal received, stopping" << std::endl;
  server.stop();
  bool drained = false;
  std::uint64_t seal_violations = 0;
  try {
    drained = service.drain(drain_timeout_s);
    seal_violations = service.stats().seal_violations;
  } catch (const std::exception& e) {
    std::cerr << "egoistd: drain failed: " << e.what() << std::endl;
    seal_violations = service.stats().seal_violations;
  }
  std::cout << "EGOISTD EXIT epochs=" << epochs << " drained=" << (drained ? 1 : 0)
            << " seal_violations=" << seal_violations << std::endl;
  return (drained && seal_violations == 0) ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "egoistd: error: " << e.what() << '\n';
    return 1;
  }
}
