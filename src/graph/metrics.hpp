// Overlay quality metrics from the paper.
//
// - Routing cost C_i(S) = sum_j p_ij * d_S(v_i, v_j)      (§2.1)
// - Efficiency  eps_i  = 1/(n-1) * sum_{j != i} 1/d_ij    (§4.4; 0 when
//   disconnected — the churn experiments' replacement for raw distance)
#pragma once

#include <vector>

#include "graph/digraph.hpp"

namespace egoist::graph {

/// Weighted routing cost of node `src` given its distance row `dist` and
/// per-destination preferences `pref` (pref[src] ignored). Unreachable
/// destinations contribute `unreachable_penalty` (the paper's M >> n).
double routing_cost(const std::vector<double>& dist, const std::vector<double>& pref,
                    NodeId src, double unreachable_penalty);

/// Uniform-preference routing cost: average distance to the other
/// destinations listed in `targets` (src excluded), with penalty for
/// unreachable ones.
double uniform_routing_cost(const std::vector<double>& dist, NodeId src,
                            const std::vector<NodeId>& targets,
                            double unreachable_penalty);

/// Efficiency of node src over destinations `targets`: mean of 1/d
/// (0 for unreachable or zero-distance-self entries). Result is in
/// [0, mean(1/d_min)]; higher is better.
double node_efficiency(const std::vector<double>& dist, NodeId src,
                       const std::vector<NodeId>& targets);

}  // namespace egoist::graph
