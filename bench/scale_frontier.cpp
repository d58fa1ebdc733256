// Epoch cost vs n: BR/HybridBR run_epoch() wall time per epoch-worker
// count, from the dense objective at a few hundred nodes
// (scenarios/perf_epoch_scaling.scn) to §5 scale mode at n up to 20k on
// the procedural underlay (scenarios/scale_frontier.scn), with memory
// telemetry. Thin wrapper over the scenario driver.
#include "exp/cli.hpp"

int main(int argc, char** argv) {
  return egoist::exp::run_scenario_main(
      "scale_frontier", argc, argv,
      "Scale frontier: one BR/HybridBR overlay per (n, policy, workers) row, "
      "in sampled scale mode on the procedural O(n)-memory underlay by "
      "default, reporting epoch wall time plus substrate/measurement-plane "
      "memory telemetry.");
}
