#include "graph/shortest_path.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace egoist::graph {

ShortestPathTree dijkstra(const Digraph& g, NodeId src) {
  g.check_node(src);
  if (!g.is_active(src)) {
    throw std::invalid_argument("dijkstra from inactive source");
  }
  const std::size_t n = g.node_count();
  ShortestPathTree tree;
  tree.dist.assign(n, kUnreachable);
  tree.parent.assign(n, -1);
  tree.dist[static_cast<std::size_t>(src)] = 0.0;

  using Item = std::pair<double, NodeId>;  // (dist, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > tree.dist[static_cast<std::size_t>(u)]) continue;  // stale entry
    for (const Edge& e : g.out_edges(u)) {
      if (!g.is_active(e.to)) continue;
      if (e.weight < 0.0) {
        throw std::invalid_argument("dijkstra requires non-negative weights");
      }
      const double nd = d + e.weight;
      if (nd < tree.dist[static_cast<std::size_t>(e.to)]) {
        tree.dist[static_cast<std::size_t>(e.to)] = nd;
        tree.parent[static_cast<std::size_t>(e.to)] = u;
        heap.emplace(nd, e.to);
      }
    }
  }
  return tree;
}

std::vector<std::vector<double>> all_pairs_shortest_paths(const Digraph& g) {
  const std::size_t n = g.node_count();
  std::vector<std::vector<double>> dist(n, std::vector<double>(n, kUnreachable));
  for (std::size_t u = 0; u < n; ++u) {
    if (!g.is_active(static_cast<NodeId>(u))) continue;
    dist[u] = dijkstra(g, static_cast<NodeId>(u)).dist;
  }
  return dist;
}

std::vector<NodeId> extract_path(const ShortestPathTree& tree, NodeId src, NodeId dst) {
  if (dst < 0 || static_cast<std::size_t>(dst) >= tree.dist.size()) {
    throw std::out_of_range("extract_path: dst out of range");
  }
  if (tree.dist[static_cast<std::size_t>(dst)] == kUnreachable) return {};
  std::vector<NodeId> path;
  for (NodeId v = dst; v != -1; v = tree.parent[static_cast<std::size_t>(v)]) {
    path.push_back(v);
    if (v == src) break;
  }
  std::reverse(path.begin(), path.end());
  if (path.empty() || path.front() != src) return {};
  return path;
}

}  // namespace egoist::graph
