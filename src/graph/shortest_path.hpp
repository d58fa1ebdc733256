// Shortest-path routines (Dijkstra, all-pairs) over the overlay wiring.
//
// EGOIST performs standard shortest-path routing over the selfishly built
// topology (the paper stresses this is *not* selfish routing). Costs are
// non-negative doubles; unreachable destinations get kUnreachable, which is
// the "M >> n" sentinel of the paper's cost definition.
#pragma once

#include <limits>
#include <vector>

#include "graph/digraph.hpp"

namespace egoist::graph {

/// Distance assigned to unreachable destinations.
inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// Result of a single-source shortest-path computation.
struct ShortestPathTree {
  std::vector<double> dist;    ///< dist[v]; kUnreachable when no path
  std::vector<NodeId> parent;  ///< predecessor on a shortest path; -1 at source/unreached
};

/// Dijkstra from `src`, honoring node active flags. Requires non-negative
/// edge weights (throws std::invalid_argument on a negative weight) and an
/// active source (throws std::invalid_argument otherwise).
ShortestPathTree dijkstra(const Digraph& g, NodeId src);

/// All-pairs shortest path distances: result[u][v]. Rows for inactive
/// sources are filled with kUnreachable (diag of active nodes is 0).
std::vector<std::vector<double>> all_pairs_shortest_paths(const Digraph& g);

/// Reconstructs the node sequence src -> ... -> dst from a Dijkstra tree.
/// Returns an empty vector when dst is unreachable.
std::vector<NodeId> extract_path(const ShortestPathTree& tree, NodeId src, NodeId dst);

}  // namespace egoist::graph
