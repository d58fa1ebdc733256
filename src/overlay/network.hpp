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
#include "overlay/epoch_engine.hpp"
#include "overlay/node_store.hpp"
#include "util/rng.hpp"

namespace egoist::overlay {

using graph::NodeId;

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
  /// One wiring epoch; returns the number of nodes that changed their
  /// wiring. A §5 scale-mode epoch runs the deterministic pipeline: it
  /// refreshes the landmarks and shuffles the online nodes at the
  /// boundary, then snapshot (sequential — every dirty check, drift probe,
  /// sample draw and measurement), evaluate (every node best-responds to
  /// the boundary state: inline at workers 0, on the worker pool at >= 1),
  /// merge (sequential — adopted re-wirings applied and hooks fired), all
  /// in that order, so the trajectory is bit-identical at any worker
  /// count. Every dense epoch is the sequential loop: each online node, in
  /// a freshly shuffled order, re-evaluates seeing the re-wirings of the
  /// nodes before it (nodes are not synchronized, §4.2).
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
  /// Scale-mode evaluations that kept their wiring without a search,
  /// because a bound proved that no search could clear the BR(eps)
  /// threshold (see propose). Always 0 in dense mode.
  std::uint64_t total_searches_skipped() const {
    return total_searches_skipped_;
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

  /// One node's turn, the step every sequential schedule runs (the
  /// sequential run_epoch loop, run_node, immediate repairs): measure the
  /// node's pool, choose the objective, propose, commit. Returns true when
  /// the node re-wired. The pipeline runs the same calls in its phases.
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

  /// Per-policy choice of new wiring. `direct` is the node's measurement
  /// of every online node, indexed by id.
  std::vector<NodeId> choose_wiring(int node, const std::vector<double>& direct);

  /// --- §5 scale mode (config_.br_sample > 0) ---
  bool scale_mode() const { return config_.br_sample > 0; }

  /// Candidate pool for a scale-mode evaluation: the node's current wiring
  /// and donated links plus a fresh random sample of br_sample others,
  /// drawn by rank from the online array (O(pool), not O(n)).
  std::vector<NodeId> sample_pool(int node);

  /// One measurement row: `values[i]` is the direct metric cost/value
  /// (ping / coords / own load / bandwidth probe) from the node to
  /// `pool[i]`.
  struct Measurement {
    std::vector<NodeId> pool;
    std::vector<double> values;
  };

  /// Measures `node`'s links to `pool`, probing in pool order. The node
  /// itself and offline members are not probed and hold the metric's
  /// unmeasured value. The pool is every online node in dense mode and a
  /// sample in scale mode. Scale mode first cuts the node's ping row to
  /// the pool plus its wiring and donated links, which bounds the plane at
  /// k + k2 + br_sample EWMAs a node.
  Measurement measure(int node, std::vector<NodeId> pool);

  /// The value of a link nobody measured: kUnreachable, or 0 for
  /// bandwidth.
  double unmeasured() const;

  /// The measurement made node-indexed in `ws` (see
  /// EpochWorkspace::expand).
  const std::vector<double>& expand(EpochWorkspace& ws,
                                    std::span<const NodeId> pool,
                                    std::span<const double> values) const;

  /// (Re)computes the epoch-shared landmark state: samples br_landmarks
  /// online destinations and fills every node's row towards all of them
  /// in one graph::paths_to pass over the announced graph's in-edges
  /// (shortest for delay/load, widest for bandwidth).
  void refresh_landmarks();

  /// --- The BR decision, shared by every schedule ---
  /// One evaluation's outcome: the proposed wiring (fixed links first)
  /// and whether the BR(eps) rule adopts it. `search_skipped`: propose
  /// kept the wiring on its bound, without a search (counted by commit,
  /// so the pipeline's workers write no shared counter).
  struct Proposal {
    std::vector<NodeId> wiring;
    bool adopt = false;
    bool search_skipped = false;
  };

  bool best_response_policy() const;

  /// Search options for `node`: the configured tuning, the given scratch,
  /// and HybridBR's donated links as fixed links.
  core::BestResponseOptions search_options(
      int node, core::BestResponseScratch& scratch) const;

  /// k, capped at the number of other online nodes.
  std::size_t degree_budget() const;

  /// Readies the decision state the objectives read and returns the fold
  /// penalty (0 for bandwidth): in dense mode the engine mirrors the
  /// decision graph (re-snapshotted unless an epoch keeps it synchronized)
  /// with the metric's base trees prepared; scale mode reads the landmark
  /// state, which its schedules refresh themselves.
  double prepare_decision();

  /// The node's objective over its expanded measurement row `direct`:
  /// the metric's residual objective from the prepared engine in dense
  /// mode, or the `pool` candidates scored against the landmarks in scale
  /// mode (borrowing `direct`, as the residual objectives borrow
  /// ws.residual). Writes only `ws`, so the pipeline's workers call it
  /// concurrently.
  std::unique_ptr<core::WiringObjective> objective(
      NodeId node, std::span<const NodeId> pool,
      const std::vector<double>& direct, double penalty,
      EpochWorkspace& ws) const;

  /// Runs the sticky BR search (seeded with `current`) over `objective`
  /// and applies the BR(eps) adoption rule (§4.3) against the current
  /// wiring's cost under the same objective. In scale mode it first
  /// bounds every proposal's cost by the whole candidate pool's and keeps
  /// the wiring without a search when even that bound clears no
  /// threshold. Pure: safe to run concurrently for distinct nodes with
  /// distinct scratch.
  Proposal propose(int node, const core::WiringObjective& objective,
                   const std::vector<NodeId>& current, std::size_t budget,
                   core::BestResponseScratch& scratch) const;

  /// Applies an evaluation's outcome: the proposal when adopted (firing
  /// on_rewire), else the current wiring with refreshed announced costs.
  /// Counts a skipped search. Returns proposal.adopt.
  bool commit(int node, const std::vector<NodeId>& current, Proposal proposal,
              std::span<const double> direct);

  bool is_cheater(int node) const;

  /// Node `node`'s routing preference over all destinations (normalized
  /// over the currently online targets; offline entries zeroed).
  std::vector<double> preference_of(int node) const;

  /// --- The snapshot -> evaluate -> merge epoch (scale mode; see
  /// run_epoch) ---
  int run_epoch_pipeline();

  /// --- Incremental dirty-set epochs (config_.incremental) ---
  /// The epoch-turn skip decision: the node's dirty bit, or — tolerance
  /// mode only — an O(k) drift probe of its own wiring links against the
  /// baseline captured at its last evaluation.
  bool node_needs_evaluation(int node);

  /// Post-announce marking, called from apply_wiring with the node's
  /// previous announced out-edge row: exact mode marks everyone on any
  /// delta; tolerance mode marks the announcer's holders (from the
  /// store's in-link index) plus the sources whose base-tree rows the
  /// engine's incremental patch invalidated.
  void note_announce(int node, std::span<const graph::Edge> old_row);

  Environment& env_;
  OverlayConfig config_;
  NetworkHooks hooks_;
  util::Rng rng_;
  std::vector<std::vector<double>> base_preference_;  ///< unnormalized Zipf weights

  /// SoA component store for per-node overlay state (membership, wiring
  /// rows, donated rows) — flat slabs instead of one heap vector per node.
  NodeStore store_;

  /// Epoch-scoped planes of the pipeline, one slot per evaluation: the
  /// measurement snapshot (sampled pools) and the proposals.
  EpochStore epoch_store_;

  /// Worker pool + workspaces for the pipeline's evaluate phase: built at
  /// construction when config_.epoch_workers >= 1, never at 0.
  std::unique_ptr<EpochEngine> epoch_engine_;

  graph::Digraph announced_;

  /// Shared CSR path engine: re-snapshots the decision graph before each
  /// BR evaluation, reusing its flat buffers, so the residual all-pairs
  /// runs allocation-free. Each node's G_{-i} is an O(1) exclusion view
  /// over the snapshot instead of a graph copy.
  graph::PathEngine engine_;

  /// The calling thread's workspace (every measurement row outside a
  /// pooled evaluate phase is expanded here), so no evaluation allocates
  /// or fills n entries of scratch.
  EpochWorkspace workspace_;

  /// Audited decision graph buffer (only populated when audits are on).
  graph::Digraph audited_;

  /// True while the sequential run_epoch loop keeps the engine synchronized
  /// with announced_:
  /// the engine is snapshotted once at the epoch boundary and then patched
  /// incrementally after each node re-announces (update_out_edges), so its
  /// shared base trees survive the whole sequential epoch. Off outside
  /// epochs (run_node, immediate re-wiring: per-call snapshots) and in
  /// audit mode (the audited decision graph is rebuilt per node).
  bool engine_synced_ = false;

  /// Per-epoch cache of core::default_unreachable_penalty over the decision
  /// graph: set for the duration of the sequential run_epoch loop, empty
  /// outside it (the pipeline scans once per epoch itself; join, run_node
  /// and immediate repairs compute a fresh value, as the seed did).
  std::optional<double> epoch_penalty_;

  /// Scale-mode landmark state: distance/bottleneck from every node to each
  /// landmark (n x L, epoch-shared; row v holds v's L values, the layout
  /// core::LandmarkObjective reads), the landmark ids, and the id -> column
  /// map. Nodes decide on the announced graph as of the last refresh, like
  /// agents acting on the last flooded link state. A refresh serves one
  /// epoch-equivalent of evaluations: run_epoch refreshes at its boundary;
  /// the staggered/run_node path decrements `evals_left` and refreshes
  /// after online_count() evaluations, so both schedules recompute the
  /// n x L matrix once per epoch, not once per node. Membership changes
  /// invalidate the state (landmarks may have left).
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
  std::vector<NodeId> holder_scratch_;  ///< marking and immediate repair

  int epochs_ = 0;
  std::uint64_t total_rewirings_ = 0;
  std::uint64_t total_evaluations_ = 0;
  std::uint64_t total_skipped_evals_ = 0;
  std::uint64_t total_searches_skipped_ = 0;
};

}  // namespace egoist::overlay
