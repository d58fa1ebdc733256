#include "exp/registry.hpp"

#include "exp/experiments/experiments.hpp"

namespace egoist::exp {

const std::vector<Experiment>& experiments() {
  static const std::vector<Experiment> kExperiments{
      {"fig1_delay_ping",
       "Fig 1 (top-left): individual cost vs k, delay via ping, normalized "
       "to BR, with the full-mesh reference",
       &run_fig1_delay_ping},
      {"fig1_delay_coords",
       "Fig 1 (top-right): individual cost vs k, delay from Vivaldi "
       "coordinates, normalized to BR",
       &run_fig1_delay_coords},
      {"fig1_node_load",
       "Fig 1 (bottom-left): individual cost vs k under the node CPU-load "
       "metric, normalized to BR",
       &run_fig1_node_load},
      {"fig1_avail_bw",
       "Fig 1 (bottom-right): aggregate available bandwidth vs k, each "
       "policy normalized to BR",
       &run_fig1_avail_bw},
      {"fig2_churn",
       "Fig 2: node efficiency under trace-driven and parameterized churn, "
       "normalized to BR",
       &run_fig2_churn},
      {"fig3_rewirings",
       "Fig 3: BR re-wiring dynamics — per-epoch timeline, steady state vs "
       "k, BR(eps) sensitivity",
       &run_fig3_rewirings},
      {"fig4_free_riders",
       "Fig 4: robustness to free riders announcing 2x-inflated link costs",
       &run_fig4_free_riders},
      {"fig5_8_sampling",
       "Figs 5-8: scalability via sampling — a newcomer joins each base "
       "overlay from a sample of m nodes",
       &run_fig5_8_sampling},
      {"fig10_multipath_bw",
       "Fig 10: available-bandwidth gain from multipath transfer over a "
       "bandwidth-metric BR overlay",
       &run_fig10_multipath_bw},
      {"fig11_disjoint_paths",
       "Fig 11: edge-disjoint overlay paths between random pairs vs k over "
       "a delay-metric BR overlay",
       &run_fig11_disjoint_paths},
      {"overhead_accounting",
       "section 4.3 overhead accounting: measured protocol byte counts vs "
       "the paper's closed-form per-node loads",
       &run_overhead_accounting},
      {"ablation_design_choices",
       "ablations for the section 3.3-3.4 design choices: ring-cycle vs "
       "MST backbone, delayed vs immediate re-wiring, audits on/off",
       &run_ablation_design_choices},
      {"steady_state",
       "generic sweep cell: one policy on one metric at one (n, k, seed) "
       "point, reporting the tail-epoch score",
       &run_steady_state},
      {"scale_frontier",
       "epoch cost vs n: BR/HybridBR epoch wall time per epoch-worker "
       "count, from the dense objective at a few hundred nodes to section 5 "
       "scale mode at 20k on the procedural underlay, with memory telemetry",
       &run_scale_frontier},
      {"serve_remote",
       "route serving under churn: spawns the egoistd daemon and hammers it "
       "over loopback TCP and a Unix-domain socket with pipelined "
       "wire-protocol clients, side by side with in-process readers on a "
       "RouteService (transports=inproc), reporting qps and latency",
       &run_serve_remote},
  };
  return kExperiments;
}

const Experiment* find_experiment(const std::string& name) {
  for (const auto& experiment : experiments()) {
    if (experiment.name == name) return &experiment;
  }
  return nullptr;
}

}  // namespace egoist::exp
