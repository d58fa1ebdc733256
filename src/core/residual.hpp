// Builders that turn an overlay snapshot into per-node wiring objectives.
//
// A node computing its best response works on the *residual* graph G_{-i}
// (the overlay with its own out-edges removed, §2.1) as learned through the
// link-state protocol, plus its own direct-link measurements. These helpers
// do that derivation and package the result as a WiringObjective.
//
// The residual distances come from graph::PathEngine: the engine holds a
// CSR snapshot of the overlay and serves G_{-i} as an O(1) residual *view*
// (no graph copy, no per-call allocations). One engine is shared across
// every node evaluated against the same snapshot. The builders only query
// it (const, through the caller's QueryScratch), so worker threads may
// build objectives concurrently against one engine; call prepare_shortest
// / prepare_widest first to serve the rows from its shared base trees.
// The fold penalty is always the caller's: it belongs to the decision
// graph the engine was rebuilt from, not to the snapshot. Tests check the
// objectives against graph::all_pairs_* run on residual Digraph copies.
#pragma once

#include <optional>
#include <vector>

#include "core/objective.hpp"
#include "graph/digraph.hpp"
#include "graph/path_engine.hpp"

namespace egoist::core {

/// The "M >> n" penalty for unreachable destinations over `overlay`:
/// comfortably larger than any realistic path cost — 1000 * n times the
/// heaviest edge weight, so +inf when any edge weight is +inf. One scan of
/// every edge, O(n + E).
double default_unreachable_penalty(const graph::Digraph& overlay);

/// Builds a delay/load objective for `self`.
///
/// engine:       snapshot of the current global wiring (edge weights =
///               announced costs); self's out-edges are excluded (residual
///               graph semantics). It must have been rebuilt from the
///               overlay the caller is deciding on.
/// query:        the caller's query scratch.
/// direct_cost:  measured direct-link cost self -> v, indexed by id; only
///               candidate entries are read.
/// preference:   p_ij per destination; std::nullopt = uniform over targets.
/// unreachable_penalty: the fold value of an unreachable target (usually
///               default_unreachable_penalty of the decision graph).
/// scratch:      when non-null the residual matrix is written into it and
///               the objective borrows it (the epoch loop reuses one matrix
///               instead of allocating n^2 doubles per node); it must then
///               outlive the objective.
/// Candidates and targets are all active nodes except self.
DelayObjective make_delay_objective(
    const graph::PathEngine& engine, graph::PathEngine::QueryScratch& query,
    NodeId self, const std::vector<double>& direct_cost,
    std::optional<std::vector<double>> preference, double unreachable_penalty,
    graph::DistanceMatrix* scratch = nullptr);

/// Builds a bandwidth objective for `self` (edge weights = available
/// bandwidth; residual computation = all-pairs widest paths; no penalty:
/// an unreachable target folds to bandwidth 0).
BandwidthObjective make_bandwidth_objective(
    const graph::PathEngine& engine, graph::PathEngine::QueryScratch& query,
    NodeId self, const std::vector<double>& direct_bw,
    graph::DistanceMatrix* scratch = nullptr);

/// Restricted variant for the sampling policies of §5: candidates and
/// targets are limited to `sample` (the newcomer only measures and reasons
/// about the sampled nodes), and only the sampled sources' residual rows
/// are computed (single-source queries against the shared snapshot).
DelayObjective make_sampled_delay_objective(
    const graph::PathEngine& engine, graph::PathEngine::QueryScratch& query,
    NodeId self, const std::vector<double>& direct_cost,
    const std::vector<NodeId>& sample, double unreachable_penalty);

}  // namespace egoist::core
