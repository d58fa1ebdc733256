// Scalability via sampling (§5).
//
// At scale a newcomer cannot measure all n nodes or run BR over them.
// Instead it draws candidate samples and computes its wiring over the
// sample only. Two samplers:
//
// - Unbiased: m uniform random nodes.
// - Topology-biased (BRtp): draw m' > m random nodes, rank them by
//       b_ij = |F(v_j)| / sum_{u in F(v_j)} d(v_i, u)
//   where F(v_j) is v_j's r-hop out-neighborhood, and keep the top m. The
//   intuition: a good neighbor fronts a large neighborhood whose members
//   are close to the newcomer.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/path_engine.hpp"
#include "util/rng.hpp"

namespace egoist::core {

using graph::NodeId;

/// m uniform-random distinct nodes from `candidates`.
std::vector<NodeId> random_sample(const std::vector<NodeId>& candidates,
                                  std::size_t m, util::Rng& rng);

/// Parameters of the topology-biased sampler.
struct BiasedSamplingOptions {
  int radius = 2;              ///< r of the r-hop neighborhood
  double oversample = 3.0;     ///< m' = ceil(oversample * m), capped at |candidates|
};

/// Topology-biased sample of size m for newcomer `self`.
///
/// graph:       CSR snapshot of the residual overlay (self's edges need not
///              be present); the r-hop BFS runs over its flat arrays.
/// direct_cost: measured distance from self to every node (indexed by id) —
///              d(v_i, u) in the ranking function.
std::vector<NodeId> topology_biased_sample(const graph::CsrGraph& graph,
                                           NodeId self,
                                           const std::vector<double>& direct_cost,
                                           const std::vector<NodeId>& candidates,
                                           std::size_t m, util::Rng& rng,
                                           const BiasedSamplingOptions& options = {});

/// The ranking function b_ij (exposed for tests): higher is better.
/// F(v_j) holds the nodes (v_j excluded) reachable from v_j in at most
/// `radius` hops over active nodes, whatever the edge weights. Returns 0
/// when F(v_j) is empty; throws std::invalid_argument on a negative radius.
double biased_rank(const graph::CsrGraph& graph, NodeId self, NodeId candidate,
                   const std::vector<double>& direct_cost, int radius);

}  // namespace egoist::core
