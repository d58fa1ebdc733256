// EgoistNetwork — one overlay (one policy, one metric) deployed on a shared
// Environment: the in-silico equivalent of one of the paper's concurrent
// per-policy PlanetLab agents.
//
// The network tracks, per node, the current wiring; an "announced" overlay
// graph whose edge weights are the costs nodes advertise through the
// link-state protocol (free riders inflate theirs, §3.4); and the node's
// online/offline state (churn, §4.4). Each wiring epoch every online node
// re-measures its candidate links, rebuilds its residual view from the
// announced graph and re-evaluates its wiring under its policy — adopting a
// new one when the policy says so (for BR(eps): when the improvement
// exceeds eps, §4.3).
//
// Scoring always uses the *true* instantaneous substrate quantities, never
// the announced ones, so measurement error and lying are visible in the
// results exactly as they were on PlanetLab.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/objective.hpp"
#include "graph/digraph.hpp"
#include "graph/path_engine.hpp"
#include "overlay/config.hpp"
#include "overlay/dirty_tracker.hpp"
#include "overlay/environment.hpp"
#include "overlay/node_store.hpp"
#include "util/rng.hpp"

namespace egoist::overlay {

using graph::NodeId;

class EpochEngine;
struct EpochWorkspace;

/// Observation hooks the hosting layer installs to mirror engine activity
/// as typed events (host::OverlayHost's subscription API). Both optional;
/// neither influences the trajectory — the engine behaves identically with
/// or without observers.
struct NetworkHooks {
  /// A node adopted a new wiring (counted in total_rewirings). Backbone
  /// splices and announcement refreshes are maintenance, not re-wirings,
  /// and do not fire this.
  std::function<void(int node, const std::vector<NodeId>& old_wiring,
                     const std::vector<NodeId>& new_wiring)>
      on_rewire;
  /// A node went online/offline (fired before any resulting backbone
  /// splice or immediate repair re-wirings).
  std::function<void(int node, bool online)> on_membership;
};

class EgoistNetwork {
 public:
  /// All nodes join (in id order) at construction; use set_online to model
  /// churn afterwards.
  EgoistNetwork(Environment& env, OverlayConfig config);
  ~EgoistNetwork();

  std::size_t size() const { return store_.size(); }
  const OverlayConfig& config() const { return config_; }

  /// --- Membership (churn hooks) ---
  void set_online(int node, bool online);
  bool is_online(int node) const;
  std::size_t online_count() const;
  std::vector<NodeId> online_nodes() const;

  /// --- Protocol dynamics ---
  /// One wiring epoch. With config.epoch_workers == 0 (the default), every
  /// online node re-evaluates its wiring in a freshly shuffled order, each
  /// seeing the re-wirings of the nodes before it (nodes are not
  /// synchronized, §4.2). With epoch_workers >= 1 and a BR/HybridBR policy,
  /// the epoch runs as the deterministic parallel pipeline instead:
  /// snapshot (sequential — all measurements and RNG draws, ascending node
  /// order), evaluate (parallel — every node best-responds to the immutable
  /// epoch-start state), merge (sequential — adopted re-wirings applied and
  /// hooks fired in ascending node order). The pipeline trajectory is
  /// bit-identical at any worker count. Returns the number of nodes that
  /// changed their wiring this epoch.
  int run_epoch();

  /// Evaluates a single node's wiring (the staggered, unsynchronized mode:
  /// on average one node re-evaluates every T/n seconds). Returns true when
  /// the node re-wired. No-op (false) for offline nodes.
  bool run_node(int node);

  int epochs_run() const { return epochs_; }
  std::uint64_t total_rewirings() const { return total_rewirings_; }

  /// --- Incremental-epoch telemetry (meaningful in every mode; with
  /// incremental off, skipped is always 0) ---
  /// Node evaluations actually performed by run_epoch / run_node.
  std::uint64_t total_evaluations() const { return total_evaluations_; }
  /// Online-node turns skipped because the node's dirty bit was clear (and,
  /// in tolerance mode, its drift probe stayed under the threshold).
  std::uint64_t total_skipped_evals() const { return total_skipped_evals_; }
  /// Nodes currently marked for re-evaluation (n with incremental off —
  /// the tracker then just mirrors "everyone always re-evaluates").
  std::size_t dirty_count() const {
    return config_.incremental ? dirty_.dirty_count() : store_.size();
  }

  /// Current wiring (chosen neighbors, including donated links) of a node.
  /// A view into the SoA node store; invalidated by the next mutation of
  /// the node's row (epoch, churn, backbone splice).
  std::span<const NodeId> wiring(int node) const;

  /// HybridBR's donated backbone links of a node (empty for other
  /// policies). Same view semantics as wiring().
  std::span<const NodeId> donated(int node) const;

  /// --- Graph views ---
  /// Wiring with announced costs (what the link-state protocol carries).
  const graph::Digraph& announced_graph() const { return announced_; }

  /// Wiring with true, instantaneous metric costs (delay ms / node load /
  /// negative-free bandwidth depending on the metric).
  graph::Digraph true_cost_graph() const;

  /// Wiring with true available bandwidth as weights (for the multipath and
  /// disjoint-path applications; valid under any metric).
  graph::Digraph true_bandwidth_graph() const;

  /// --- Scores (computed on true costs, online nodes only) ---
  /// Uniform routing cost per online node (delay/load metrics).
  std::vector<double> node_costs() const;

  /// Efficiency (mean of 1/d, 0 when disconnected) per online node.
  std::vector<double> node_efficiencies() const;

  /// Mean bottleneck bandwidth to all destinations per online node.
  std::vector<double> node_bandwidth_scores() const;

  /// Per-node normalized routing preferences for scoring: empty when
  /// preferences are uniform (zipf exponent 0), otherwise indexed by node
  /// id with entries populated for the online nodes. This is the
  /// `preferences` input of overlay/scoring.hpp, also captured by
  /// host::WiringSnapshot so detached reads score identically.
  std::vector<std::vector<double>> score_preferences() const;

  /// Installs (or clears, with default-constructed hooks) the observers.
  void set_hooks(NetworkHooks hooks) { hooks_ = std::move(hooks); }

 private:
  /// Bootstrap wiring for a node joining (or re-joining) the overlay:
  /// HybridBR's donated links, one measurement over the node's pool (a
  /// fresh sample in scale mode, every online node otherwise), then the
  /// wiring (the policy's choice; in scale mode the k closest/widest of
  /// the sample).
  void join(int node);

  /// Re-evaluates one node's wiring; returns true when it re-wired.
  bool evaluate_node(int node);

  /// evaluate_node plus the evaluation / re-wiring counters: the one
  /// counting point for run_node and immediate-mode repairs.
  bool evaluate_counted(int node);

  /// Donated backbone links for `node`: +/- ring offsets over the online
  /// set (k2/2 bidirectional cycles, §3.3).
  std::vector<NodeId> backbone_links(int node) const;

  /// Rebuilds donated links of every online node (called on membership
  /// changes: the backbone is monitored aggressively and spliced
  /// immediately, unlike lazy BR links).
  void refresh_backbone();

  /// Installs a wiring and re-announces the node's links. `direct` is
  /// indexed by node id and must cover every wiring entry.
  void apply_wiring(int node, std::vector<NodeId> wiring,
                    std::span<const double> direct);

  /// Announced cost of link node -> v given its measured value.
  double announced_cost(int node, double measured) const;

  /// The graph a node reasons over: the announced overlay, optionally with
  /// audited costs (announcements that exceed 1.5x the coordinate
  /// estimate are replaced by the estimate, §3.4). Returns a
  /// reference to announced_ when audits are off (the common case — no
  /// per-node graph copy), or to the member audit buffer otherwise.
  const graph::Digraph& decision_graph();

  /// The "M >> n" fold penalty for the current decision graph: the value
  /// cached for this epoch when inside run_epoch (computed once instead of
  /// rescanning every edge once per node), a fresh scan otherwise.
  double unreachable_penalty(const graph::Digraph& decision) const;

  /// Per-policy choice of new wiring. `direct` measures every online node.
  std::vector<NodeId> choose_wiring(int node, const std::vector<double>& direct);

  /// --- §5 scale mode (config_.br_sample > 0) ---
  bool scale_mode() const { return config_.br_sample > 0; }

  /// Candidate pool for a scale-mode evaluation: the node's current wiring
  /// and donated links plus a fresh random sample of br_sample others.
  std::vector<NodeId> sample_pool(int node);

  /// Measures the direct metric cost/value (ping / coords / own load /
  /// bandwidth probe) from `node` to each online member of `pool`, probing
  /// in pool order; the result is indexed by node id. The pool is every
  /// online node in dense mode and a sample in scale mode (what keeps the
  /// scale-mode measurement plane at O(probed pairs)).
  std::vector<double> measure_pool(int node, const std::vector<NodeId>& pool);

  /// (Re)computes the epoch-shared landmark state: samples br_landmarks
  /// online destinations and runs one reverse traversal of the announced
  /// graph per landmark (shortest for delay/load, widest for bandwidth).
  void refresh_landmarks();

  /// Scale-mode node evaluation (sampled candidates x landmark targets);
  /// same BR(eps) adoption rule and hooks as the dense path.
  bool evaluate_node_sampled(int node);

  /// --- The BR decision, shared by the dense, scale-mode and pipeline
  /// evaluations ---
  /// One evaluation's outcome: the proposed wiring (fixed links first)
  /// and whether the BR(eps) rule adopts it.
  struct Proposal {
    std::vector<NodeId> wiring;
    bool adopt = false;
  };

  bool best_response_policy() const;

  /// Search options for `node`: the configured tuning, the given scratch,
  /// and HybridBR's donated links as fixed links.
  core::BestResponseOptions search_options(
      int node, core::BestResponseScratch& scratch) const;

  /// k, capped at the number of other online nodes.
  std::size_t degree_budget() const;

  /// Runs the sticky BR search (seeded with `current`) over `objective`
  /// and applies the BR(eps) adoption rule (§4.3) against the current
  /// wiring's cost under the same objective. Pure: safe to run
  /// concurrently for distinct nodes with distinct scratch.
  Proposal propose(int node, const core::WiringObjective& objective,
                   const std::vector<NodeId>& current, std::size_t budget,
                   core::BestResponseScratch& scratch) const;

  /// Applies an evaluation's outcome: the proposal when adopted (firing
  /// on_rewire), else the current wiring with refreshed announced costs.
  /// Returns proposal.adopt.
  bool commit(int node, const std::vector<NodeId>& current, Proposal proposal,
              std::span<const double> direct);

  /// The dense residual objective over the decision graph for the
  /// sequential paths: re-snapshots the shared engine unless an epoch
  /// keeps it synchronized, and prepares the metric's base trees.
  std::unique_ptr<core::WiringObjective> dense_objective(
      int node, const std::vector<double>& direct);

  /// The metric's residual objective from the prepared engine, using only
  /// caller-owned scratch (the pipeline's workers call this concurrently).
  std::unique_ptr<core::WiringObjective> residual_objective(
      NodeId node, const std::vector<double>& direct, double penalty,
      graph::PathEngine::QueryScratch& query,
      graph::DistanceMatrix& residual) const;

  /// The scale-mode objective: `pool` candidates scored against the
  /// epoch-shared landmarks (penalty ignored for bandwidth).
  core::LandmarkObjective landmark_objective(NodeId node,
                                             std::vector<NodeId> pool,
                                             std::vector<double> direct,
                                             double penalty) const;

  bool is_cheater(int node) const;

  /// Node `node`'s routing preference over all destinations (normalized
  /// over the currently online targets; offline entries zeroed).
  std::vector<double> preference_of(int node) const;

  /// --- Deterministic parallel epoch pipeline (config_.epoch_workers >= 1,
  /// BR/HybridBR; see run_epoch) ---
  bool use_pipeline() const;
  int run_epoch_pipeline();

  /// The lazily built worker pool + per-worker workspaces (rebuilt when the
  /// knob changes).
  EpochEngine& epoch_engine();

  /// Evaluate-phase body: computes node v's best response against the epoch
  /// snapshot and writes its proposal slot. Runs concurrently for distinct
  /// nodes — reads only frozen state and `ws`, writes only v's disjoint
  /// EpochStore slot.
  void evaluate_proposal(NodeId v, EpochWorkspace& ws, double penalty,
                         std::size_t budget);

  /// --- Incremental dirty-set epochs (config_.incremental) ---
  /// The epoch-turn skip decision: the node's dirty bit, or — tolerance
  /// mode only — an O(k) drift probe of its own wiring links against the
  /// baseline captured at its last evaluation.
  bool node_needs_evaluation(int node);

  /// Post-announce marking, called from apply_wiring with the node's
  /// previous announced out-edge row: exact mode marks everyone on any
  /// delta; tolerance mode marks the announcer's holders plus the sources
  /// whose base-tree rows the engine's incremental patch invalidated.
  void note_announce(int node, std::span<const graph::Edge> old_row);

  /// Online nodes whose wiring or donated links contain `node` (the
  /// announced graph has no reverse index; rows are k-bounded so the scan
  /// is O(n * k)).
  void collect_holders(int node, std::vector<NodeId>& out) const;

  Environment& env_;
  OverlayConfig config_;
  NetworkHooks hooks_;
  util::Rng rng_;
  std::vector<std::vector<double>> base_preference_;  ///< unnormalized Zipf weights

  /// SoA component store for per-node overlay state (membership, wiring
  /// rows, donated rows) — flat slabs instead of one heap vector per node.
  NodeStore store_;

  /// Epoch-scoped planes of the parallel pipeline: the measurement
  /// snapshot (dense rows or scale-mode pools) and the proposal slots.
  EpochStore epoch_store_;

  /// Worker pool + workspaces for the evaluate phase (pipeline mode only).
  std::unique_ptr<EpochEngine> epoch_engine_;

  graph::Digraph announced_;

  /// Shared CSR path engine: re-snapshots the decision graph before each
  /// BR evaluation, reusing its flat buffers, so the residual all-pairs
  /// runs allocation-free. Each node's G_{-i} is an O(1) exclusion view
  /// over the snapshot instead of a graph copy.
  graph::PathEngine engine_;

  /// Engine query scratch and residual matrix for the sequential paths
  /// (the objective borrows the matrix for one evaluation) so the epoch
  /// loop performs no n^2 allocations.
  graph::PathEngine::QueryScratch query_scratch_;
  graph::DistanceMatrix residual_scratch_;

  /// Link-value scratch reused by every best_response() search.
  core::BestResponseScratch br_scratch_;

  /// Audited decision graph buffer (only populated when audits are on).
  graph::Digraph audited_;

  /// True while run_epoch keeps the engine synchronized with announced_:
  /// the engine is snapshotted once at the epoch boundary and then patched
  /// incrementally after each node re-announces (update_out_edges), so its
  /// shared base trees survive the whole sequential epoch. Off outside
  /// epochs (run_node, immediate re-wiring: per-call snapshots) and in
  /// audit mode (the audited decision graph is rebuilt per node).
  bool engine_synced_ = false;

  /// Per-epoch cache of core::default_unreachable_penalty over the decision
  /// graph: set for the duration of run_epoch, empty outside it (join and
  /// immediate-rewire paths compute a fresh value, as the seed did).
  std::optional<double> epoch_penalty_;

  /// Scale-mode landmark state: distance/bottleneck from every node to each
  /// landmark (n x L, epoch-shared), the landmark ids, and the id -> column
  /// map. Nodes decide on the announced graph as of the last refresh, like
  /// agents acting on the last flooded link state. A refresh serves one
  /// epoch-equivalent of evaluations: run_epoch refreshes at its boundary;
  /// the staggered/run_node path decrements `evals_left` and refreshes
  /// after online_count() evaluations, so both schedules recompute the L
  /// reverse traversals once per epoch, not once per node. Membership
  /// changes invalidate the state (landmarks may have left).
  struct LandmarkState {
    bool valid = false;
    std::size_t evals_left = 0;
    std::vector<NodeId> landmarks;
    std::vector<std::int32_t> column;  ///< node id -> column; -1 = none
    graph::DistanceMatrix dist;
  };
  LandmarkState landmark_state_;

  /// Per-node invalidation state for incremental epochs (only reset — and
  /// only consulted — when config_.incremental is on).
  DirtyTracker dirty_;
  std::vector<graph::Edge> old_row_scratch_;  ///< apply_wiring announce delta
  std::vector<NodeId> holder_scratch_;        ///< tolerance-mode marking
  std::vector<NodeId> drift_links_scratch_;   ///< drift-probe link list

  int epochs_ = 0;
  std::uint64_t total_rewirings_ = 0;
  std::uint64_t total_evaluations_ = 0;
  std::uint64_t total_skipped_evals_ = 0;
};

}  // namespace egoist::overlay
