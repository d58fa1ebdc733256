// Serving load generator: spawns the egoistd daemon (built next to this
// binary) and replays the serving workload against it over
// loopback TCP and a Unix-domain socket with pipelined wire-protocol
// clients, reporting each transport side by side with the in-process leg.
// Thin wrapper over the scenario driver (scenarios/serve_remote.scn).
#include "exp/cli.hpp"

int main(int argc, char** argv) {
  return egoist::exp::run_scenario_main(
      "serve_remote", argc, argv,
      "Serve remote: forks egoistd with this scenario's deployment knobs, "
      "waits for its READY handshake, then M client threads with pipelined "
      "rpc::Clients hammer it over UDS and loopback TCP (one window per "
      "transport x destination mix), ending with a SIGTERM graceful-"
      "shutdown check and in-process comparison rows on a bit-identical "
      "local overlay.");
}
