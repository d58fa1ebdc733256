#include "core/sampling.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

namespace egoist::core {

namespace {

/// r-hop out-neighborhood of v (excluding v), ascending: a BFS over the
/// snapshot, where activity is baked in (no per-edge flag checks).
std::vector<NodeId> out_neighborhood(const graph::CsrGraph& g, NodeId v,
                                     int r) {
  if (r < 0) throw std::invalid_argument("radius must be >= 0");
  g.check_node(v);
  std::vector<NodeId> out;
  if (!g.is_active(v)) return out;
  std::vector<int> hops(g.node_count(), -1);
  std::queue<NodeId> frontier;
  hops[static_cast<std::size_t>(v)] = 0;
  frontier.push(v);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    const int next_hop = hops[static_cast<std::size_t>(u)] + 1;
    if (next_hop > r) continue;
    for (NodeId w : g.out_targets(u)) {
      if (hops[static_cast<std::size_t>(w)] != -1) continue;
      hops[static_cast<std::size_t>(w)] = next_hop;
      frontier.push(w);
    }
  }
  // Ascending id order fixes the summation order of the rank's float
  // denominator.
  for (std::size_t j = 0; j < hops.size(); ++j) {
    if (static_cast<NodeId>(j) == v) continue;
    if (hops[j] >= 0) out.push_back(static_cast<NodeId>(j));
  }
  return out;
}

double rank_over_neighborhood(const std::vector<NodeId>& hood, NodeId self,
                              const std::vector<double>& direct_cost) {
  if (hood.empty()) return 0.0;
  double denom = 0.0;
  for (NodeId u : hood) {
    if (u == self) continue;  // distance to self is not informative
    if (static_cast<std::size_t>(u) >= direct_cost.size()) {
      throw std::out_of_range("direct_cost too small");
    }
    denom += direct_cost[static_cast<std::size_t>(u)];
  }
  if (denom <= 0.0) return 0.0;
  return static_cast<double>(hood.size()) / denom;
}

}  // namespace

std::vector<NodeId> random_sample(const std::vector<NodeId>& candidates,
                                  std::size_t m, util::Rng& rng) {
  const std::size_t take = std::min(m, candidates.size());
  auto sample = rng.sample_without_replacement(
      std::span<const NodeId>(candidates), take);
  std::sort(sample.begin(), sample.end());
  return sample;
}

double biased_rank(const graph::CsrGraph& graph, NodeId self, NodeId candidate,
                   const std::vector<double>& direct_cost, int radius) {
  return rank_over_neighborhood(out_neighborhood(graph, candidate, radius),
                                self, direct_cost);
}

std::vector<NodeId> topology_biased_sample(const graph::CsrGraph& graph,
                                           NodeId self,
                                           const std::vector<double>& direct_cost,
                                           const std::vector<NodeId>& candidates,
                                           std::size_t m, util::Rng& rng,
                                           const BiasedSamplingOptions& options) {
  if (options.radius < 0) throw std::invalid_argument("radius must be >= 0");
  if (options.oversample < 1.0) {
    throw std::invalid_argument("oversample must be >= 1");
  }
  const std::size_t m_prime = std::min(
      candidates.size(),
      static_cast<std::size_t>(
          std::ceil(options.oversample * static_cast<double>(m))));
  auto pool = rng.sample_without_replacement(
      std::span<const NodeId>(candidates), m_prime);

  std::vector<std::pair<double, NodeId>> ranked;
  ranked.reserve(pool.size());
  for (NodeId v : pool) {
    ranked.emplace_back(biased_rank(graph, self, v, direct_cost, options.radius), v);
  }
  // Highest rank first; id breaks ties deterministically.
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<NodeId> sample;
  sample.reserve(std::min(m, ranked.size()));
  for (std::size_t i = 0; i < ranked.size() && sample.size() < m; ++i) {
    sample.push_back(ranked[i].second);
  }
  std::sort(sample.begin(), sample.end());
  return sample;
}

}  // namespace egoist::core
