// Reference residual graphs and objectives for tests.
//
// Production code serves the residual graph G_{-i} (the overlay minus i's
// out-edges, §2.1) as an exclusion view over graph::PathEngine's CSR
// snapshot. The references here derive it the obvious way instead: copy
// the overlay without i's out-edges and run graph::all_pairs_* on the
// copy. Engine rows and builder objectives are checked against these
// bit for bit.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "core/objective.hpp"
#include "core/residual.hpp"
#include "graph/digraph.hpp"
#include "graph/shortest_path.hpp"
#include "graph/widest_path.hpp"

namespace egoist::testing {

/// G_{-exclude}: `overlay` without `exclude`'s out-edges; activity flags
/// and every other edge (including those into `exclude`) are kept.
inline graph::Digraph residual_copy(const graph::Digraph& overlay,
                                    graph::NodeId exclude) {
  graph::Digraph residual(overlay.node_count());
  for (std::size_t u = 0; u < overlay.node_count(); ++u) {
    const auto uid = static_cast<graph::NodeId>(u);
    residual.set_active(uid, overlay.is_active(uid));
    if (uid == exclude) continue;
    for (const auto& e : overlay.out_edges(uid)) {
      residual.set_edge(uid, e.to, e.weight);
    }
  }
  return residual;
}

/// Active nodes other than `self`: the builders' default candidates and
/// targets.
inline std::vector<graph::NodeId> others(const graph::Digraph& overlay,
                                         graph::NodeId self) {
  std::vector<graph::NodeId> out;
  for (graph::NodeId v : overlay.active_nodes()) {
    if (v != self) out.push_back(v);
  }
  return out;
}

/// The delay objective core::make_delay_objective builds for `self`, from
/// all-pairs shortest paths on the residual copy (uniform preference over
/// the targets unless one is given).
inline core::DelayObjective reference_delay_objective(
    const graph::Digraph& overlay, graph::NodeId self,
    const std::vector<double>& direct_cost,
    std::optional<std::vector<double>> preference = std::nullopt) {
  const auto targets = others(overlay, self);
  if (!preference) {
    preference.emplace(overlay.node_count(), 0.0);
    for (graph::NodeId j : targets) {
      (*preference)[static_cast<std::size_t>(j)] =
          1.0 / static_cast<double>(targets.size());
    }
  }
  return core::DelayObjective(
      self, targets, direct_cost,
      graph::all_pairs_shortest_paths(residual_copy(overlay, self)),
      std::move(*preference), targets,
      core::default_unreachable_penalty(overlay));
}

/// The bandwidth objective core::make_bandwidth_objective builds, from
/// all-pairs widest paths on the residual copy.
inline core::BandwidthObjective reference_bandwidth_objective(
    const graph::Digraph& overlay, graph::NodeId self,
    const std::vector<double>& direct_bw) {
  const auto targets = others(overlay, self);
  return core::BandwidthObjective(
      self, targets, direct_bw,
      graph::all_pairs_widest_paths(residual_copy(overlay, self)), targets);
}

/// The sampled objective core::make_sampled_delay_objective builds:
/// residual shortest-path rows for the (active) sampled sources only.
inline core::DelayObjective reference_sampled_delay_objective(
    const graph::Digraph& overlay, graph::NodeId self,
    const std::vector<double>& direct_cost,
    const std::vector<graph::NodeId>& sample) {
  const std::size_t n = overlay.node_count();
  const auto residual = residual_copy(overlay, self);
  graph::DistanceMatrix dist(n, n, graph::kUnreachable);
  std::vector<double> preference(n, 0.0);
  for (graph::NodeId v : sample) {
    preference[static_cast<std::size_t>(v)] =
        1.0 / static_cast<double>(sample.size());
    if (!overlay.is_active(v)) continue;
    const auto row = graph::dijkstra(residual, v).dist;
    std::copy(row.begin(), row.end(),
              dist.row(static_cast<std::size_t>(v)).begin());
  }
  return core::DelayObjective(self, sample, direct_cost, std::move(dist),
                              std::move(preference), sample,
                              core::default_unreachable_penalty(overlay));
}

}  // namespace egoist::testing
