#include "core/residual.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/shortest_path.hpp"

namespace egoist::core {

namespace {

std::vector<NodeId> others(const graph::CsrGraph& overlay, NodeId self) {
  std::vector<NodeId> out;
  for (NodeId v : overlay.active_nodes()) {
    if (v != self) out.push_back(v);
  }
  return out;
}

void check_active_self(const graph::CsrGraph& csr, NodeId self) {
  csr.check_node(self);
  if (!csr.is_active(self)) {
    throw std::invalid_argument("self must be active");
  }
}

std::vector<double> uniform_preference(std::size_t n,
                                       const std::vector<NodeId>& targets) {
  std::vector<double> pref(n, 0.0);
  const double w =
      targets.empty() ? 0.0 : 1.0 / static_cast<double>(targets.size());
  for (NodeId j : targets) pref[static_cast<std::size_t>(j)] = w;
  return pref;
}

std::vector<double> resolve_preference(
    std::optional<std::vector<double>>&& preference, std::size_t n,
    const std::vector<NodeId>& targets) {
  if (!preference) return uniform_preference(n, targets);
  std::vector<double> pref = std::move(*preference);
  if (pref.size() != n) {
    throw std::invalid_argument("preference size mismatch");
  }
  return pref;
}

}  // namespace

double default_unreachable_penalty(const graph::Digraph& overlay) {
  // 1000 * n times the heaviest edge weight (1000 * n without edges) keeps
  // connectivity dominant without destroying float precision while every
  // weight is finite. The scan takes every weight, +inf included: one edge
  // announced at kUnreachable makes the penalty +inf.
  double heaviest = 0.0;
  for (std::size_t u = 0; u < overlay.node_count(); ++u) {
    for (const auto& e : overlay.out_edges(static_cast<NodeId>(u))) {
      heaviest = std::max(heaviest, e.weight);
    }
  }
  const double scale = heaviest > 0.0 ? heaviest : 1.0;
  return 1000.0 * scale * static_cast<double>(std::max<std::size_t>(
                              overlay.node_count(), 1));
}

DelayObjective make_delay_objective(const graph::PathEngine& engine,
                                    graph::PathEngine::QueryScratch& query,
                                    NodeId self,
                                    const std::vector<double>& direct_cost,
                                    std::optional<std::vector<double>> preference,
                                    double unreachable_penalty,
                                    graph::DistanceMatrix* scratch) {
  const auto& csr = engine.csr();
  check_active_self(csr, self);
  auto candidates = others(csr, self);
  auto targets = candidates;
  auto pref =
      resolve_preference(std::move(preference), csr.node_count(), targets);
  if (scratch != nullptr) {
    engine.all_shortest(self, *scratch, query);
    return DelayObjective(self, std::move(candidates), direct_cost, scratch,
                          std::move(pref), std::move(targets),
                          unreachable_penalty);
  }
  graph::DistanceMatrix dist;
  engine.all_shortest(self, dist, query);
  return DelayObjective(self, std::move(candidates), direct_cost,
                        std::move(dist), std::move(pref), std::move(targets),
                        unreachable_penalty);
}

BandwidthObjective make_bandwidth_objective(
    const graph::PathEngine& engine, graph::PathEngine::QueryScratch& query,
    NodeId self, const std::vector<double>& direct_bw,
    graph::DistanceMatrix* scratch) {
  const auto& csr = engine.csr();
  check_active_self(csr, self);
  auto candidates = others(csr, self);
  auto targets = candidates;
  if (scratch != nullptr) {
    engine.all_widest(self, *scratch, query);
    return BandwidthObjective(self, std::move(candidates), direct_bw, scratch,
                              std::move(targets));
  }
  graph::DistanceMatrix bw;
  engine.all_widest(self, bw, query);
  return BandwidthObjective(self, std::move(candidates), direct_bw,
                            std::move(bw), std::move(targets));
}

DelayObjective make_sampled_delay_objective(
    const graph::PathEngine& engine, graph::PathEngine::QueryScratch& query,
    NodeId self, const std::vector<double>& direct_cost,
    const std::vector<NodeId>& sample, double unreachable_penalty) {
  const auto& csr = engine.csr();
  check_active_self(csr, self);
  for (NodeId v : sample) {
    csr.check_node(v);
    if (v == self) throw std::invalid_argument("sample may not contain self");
  }
  const std::size_t n = csr.node_count();
  graph::DistanceMatrix dist(n, n, graph::kUnreachable);
  for (NodeId v : sample) {
    if (!csr.is_active(v)) continue;
    engine.shortest_from(v, self, dist.row(static_cast<std::size_t>(v)), query);
  }
  return DelayObjective(self, sample, direct_cost, std::move(dist),
                        uniform_preference(n, sample), sample,
                        unreachable_penalty);
}

}  // namespace egoist::core
