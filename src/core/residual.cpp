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

/// Shared body of the delay builders; `fill` writes the residual matrix.
template <typename Fill>
DelayObjective delay_objective(const graph::CsrGraph& csr, NodeId self,
                               const std::vector<double>& direct_cost,
                               std::optional<std::vector<double>> preference,
                               std::optional<double> unreachable_penalty,
                               graph::DistanceMatrix* scratch, Fill fill) {
  check_active_self(csr, self);
  auto candidates = others(csr, self);
  auto targets = candidates;
  auto pref =
      resolve_preference(std::move(preference), csr.node_count(), targets);
  const double penalty =
      unreachable_penalty.value_or(default_unreachable_penalty(csr));
  if (scratch != nullptr) {
    fill(*scratch);
    return DelayObjective(self, std::move(candidates), direct_cost, scratch,
                          std::move(pref), std::move(targets), penalty);
  }
  graph::DistanceMatrix dist;
  fill(dist);
  return DelayObjective(self, std::move(candidates), direct_cost,
                        std::move(dist), std::move(pref), std::move(targets),
                        penalty);
}

/// Shared body of the bandwidth builders; `fill` writes the residual matrix.
template <typename Fill>
BandwidthObjective bandwidth_objective(const graph::CsrGraph& csr, NodeId self,
                                       const std::vector<double>& direct_bw,
                                       graph::DistanceMatrix* scratch,
                                       Fill fill) {
  check_active_self(csr, self);
  auto candidates = others(csr, self);
  auto targets = candidates;
  if (scratch != nullptr) {
    fill(*scratch);
    return BandwidthObjective(self, std::move(candidates), direct_bw, scratch,
                              std::move(targets));
  }
  graph::DistanceMatrix bw;
  fill(bw);
  return BandwidthObjective(self, std::move(candidates), direct_bw,
                            std::move(bw), std::move(targets));
}

}  // namespace

double default_unreachable_penalty(const graph::Digraph& overlay) {
  // 1000x the largest finite edge weight (or 1e6 for empty overlays) keeps
  // connectivity dominant without destroying float precision.
  double max_weight = 0.0;
  for (std::size_t u = 0; u < overlay.node_count(); ++u) {
    for (const auto& e : overlay.out_edges(static_cast<NodeId>(u))) {
      max_weight = std::max(max_weight, e.weight);
    }
  }
  const double scale = max_weight > 0.0 ? max_weight : 1.0;
  return 1000.0 * scale * static_cast<double>(std::max<std::size_t>(
                              overlay.node_count(), 1));
}

double default_unreachable_penalty(const graph::CsrGraph& overlay) {
  const double scale = overlay.max_weight() > 0.0 ? overlay.max_weight() : 1.0;
  return 1000.0 * scale * static_cast<double>(std::max<std::size_t>(
                              overlay.node_count(), 1));
}

DelayObjective make_delay_objective(graph::PathEngine& engine, NodeId self,
                                    const std::vector<double>& direct_cost,
                                    std::optional<std::vector<double>> preference,
                                    std::optional<double> unreachable_penalty,
                                    graph::DistanceMatrix* scratch) {
  return delay_objective(
      engine.csr(), self, direct_cost, std::move(preference),
      unreachable_penalty, scratch,
      [&](graph::DistanceMatrix& out) { engine.all_shortest(self, out); });
}

DelayObjective make_delay_objective(const graph::PathEngine& engine,
                                    graph::PathEngine::QueryScratch& query,
                                    NodeId self,
                                    const std::vector<double>& direct_cost,
                                    std::optional<std::vector<double>> preference,
                                    std::optional<double> unreachable_penalty,
                                    graph::DistanceMatrix* scratch) {
  return delay_objective(engine.csr(), self, direct_cost, std::move(preference),
                         unreachable_penalty, scratch,
                         [&](graph::DistanceMatrix& out) {
                           engine.all_shortest(self, out, query);
                         });
}

BandwidthObjective make_bandwidth_objective(graph::PathEngine& engine,
                                            NodeId self,
                                            const std::vector<double>& direct_bw,
                                            graph::DistanceMatrix* scratch) {
  return bandwidth_objective(
      engine.csr(), self, direct_bw, scratch,
      [&](graph::DistanceMatrix& out) { engine.all_widest(self, out); });
}

BandwidthObjective make_bandwidth_objective(
    const graph::PathEngine& engine, graph::PathEngine::QueryScratch& query,
    NodeId self, const std::vector<double>& direct_bw,
    graph::DistanceMatrix* scratch) {
  return bandwidth_objective(engine.csr(), self, direct_bw, scratch,
                             [&](graph::DistanceMatrix& out) {
                               engine.all_widest(self, out, query);
                             });
}

DelayObjective make_sampled_delay_objective(
    graph::PathEngine& engine, NodeId self,
    const std::vector<double>& direct_cost, const std::vector<NodeId>& sample,
    std::optional<double> unreachable_penalty) {
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
    engine.shortest_from(v, self, dist.row(static_cast<std::size_t>(v)));
  }
  return DelayObjective(
      self, sample, direct_cost, std::move(dist),
      uniform_preference(n, sample), sample,
      unreachable_penalty.value_or(default_unreachable_penalty(csr)));
}

}  // namespace egoist::core
