#include "graph/metrics.hpp"

#include <stdexcept>

#include "graph/shortest_path.hpp"

namespace egoist::graph {

double routing_cost(const std::vector<double>& dist, const std::vector<double>& pref,
                    NodeId src, double unreachable_penalty) {
  if (dist.size() != pref.size()) {
    throw std::invalid_argument("dist/pref size mismatch");
  }
  double cost = 0.0;
  for (std::size_t j = 0; j < dist.size(); ++j) {
    if (static_cast<NodeId>(j) == src) continue;
    const double d = dist[j] == kUnreachable ? unreachable_penalty : dist[j];
    cost += pref[j] * d;
  }
  return cost;
}

double uniform_routing_cost(const std::vector<double>& dist, NodeId src,
                            const std::vector<NodeId>& targets,
                            double unreachable_penalty) {
  double sum = 0.0;
  std::size_t count = 0;
  for (NodeId j : targets) {
    if (j == src) continue;
    const auto dj = dist[static_cast<std::size_t>(j)];
    sum += dj == kUnreachable ? unreachable_penalty : dj;
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double node_efficiency(const std::vector<double>& dist, NodeId src,
                       const std::vector<NodeId>& targets) {
  double sum = 0.0;
  std::size_t count = 0;
  for (NodeId j : targets) {
    if (j == src) continue;
    ++count;
    const auto dj = dist[static_cast<std::size_t>(j)];
    if (dj == kUnreachable || dj <= 0.0) continue;  // epsilon_ij = 0
    sum += 1.0 / dj;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

}  // namespace egoist::graph
