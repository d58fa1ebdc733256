// DirtyTracker — per-node best-response invalidation state for the
// incremental wiring epochs (OverlayConfig::incremental).
//
// A node's best response is a pure function of its inputs: the announced
// decision graph, its direct measurements, the online candidate set, the
// unreachable-fold penalty (itself a function of the decision graph), and
// its static preferences. The tracker records, per node, whether any event
// since the node's last evaluation could have changed one of those inputs;
// the epoch loops then evaluate only the marked ("dirty") nodes and skip
// the rest entirely — no measurement, no announcement refresh, no BR
// search — which is what turns a steady-state epoch from O(n * BR) into
// O(changed * BR).
//
// Event sources (marked by EgoistNetwork as they happen):
//   - a neighbor's re-announce whose delta is significant (announce_delta)
//   - a churn join/leave in the node's candidate set (on_membership)
//   - a measurement-plane drift past the node's threshold (drift_exceeded
//     against the per-link baseline captured at its last evaluation)
//   - an accepted proposal that perturbed the node's shortest-path tree
//     (the PathEngine's incremental one-row update reports which source
//     rows it changed; those sources are marked)
//
// Two operating modes, selected by the drift threshold:
//
//   exact (threshold == 0, "thresholds disabled"): marking is conservative
//   and global — any announce delta (down to a single cost bit) or any
//   membership change marks every node. A clean node's inputs are then
//   provably unchanged since its last evaluation, so its re-evaluation
//   would reproduce its last decision bit for bit ("keep") and its
//   re-announce would carry identical costs: skipping it is invisible and
//   the incremental trajectory is bit-identical to the full recompute.
//   (On a noisy measurement plane every refresh changes costs, so every
//   node stays dirty and incremental degenerates to the full epoch —
//   identity holds trivially; the win appears exactly when the plane is
//   quiet enough for announcements to settle.)
//
//   tolerance (threshold > 0): marking is selective — a significant
//   announce delta (relative cost change beyond the threshold, or an
//   edge-set change) marks the announcer's in-neighbors plus the sources
//   whose base-tree rows the PathEngine patch invalidated; membership
//   changes mark the holders of the churned node (dense candidate sets are
//   global, so dense deployments still mark everyone); clean nodes are
//   drift-probed (O(k) pings) against their last-evaluation baseline.
//   Scores stay within a tested tolerance band instead of bit-identity.
//
// The tracker is pure bookkeeping: it never touches the network, the
// environment, or the RNG streams, which is what the unit truth-table
// tests pin down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"

namespace egoist::overlay {

class DirtyTracker {
 public:
  DirtyTracker() = default;

  /// (Re)initializes for n nodes with every node marked — construction and
  /// any structural reset seed the full set, as the first epoch must
  /// evaluate everyone.
  void reset(std::size_t n, double drift_threshold);

  std::size_t size() const { return dirty_.size(); }
  double drift_threshold() const { return threshold_; }
  /// True when drift thresholds are disabled (exact mode: conservative
  /// global marking, bit-identical trajectories).
  bool exact() const { return threshold_ <= 0.0; }

  bool is_dirty(std::size_t v) const { return dirty_[v] != 0; }
  std::size_t dirty_count() const { return dirty_count_; }
  void mark(std::size_t v);
  void mark_all();
  /// The caller evaluated v: its decision is now based on current inputs.
  void clear(std::size_t v);

  /// --- Event intake ---
  /// Compares a node's old announced out-edge row against its new one.
  /// Significant when the edge set changed, or (exact mode) any cost
  /// differs at all, or (tolerance mode) some cost moved by more than
  /// threshold relative to its old value. Rows need not be sorted.
  bool announce_delta_significant(std::span<const graph::Edge> old_row,
                                  std::span<const graph::Edge> new_row) const;

  /// A churn join/leave of `node`. `global_candidates` says every node's
  /// candidate set contains everyone (dense mode) — then all are marked;
  /// otherwise the churned node itself and the provided holders (nodes
  /// whose wiring or donated links contain it) are marked.
  void on_membership(std::size_t node, bool global_candidates,
                     std::span<const graph::NodeId> holders);

  /// --- Drift baselines (tolerance mode) ---
  /// Records v's measured link values at evaluation time. `values` is
  /// indexed by node id and must cover every entry of `links`.
  void set_baseline(std::size_t v, std::span<const graph::NodeId> links,
                    std::span<const double> values);

  /// True when any of v's probed links moved beyond the threshold relative
  /// to its last-evaluation baseline. Comparing against the (fixed)
  /// baseline rather than the previous epoch gives hysteresis: slow drift
  /// accumulates until it crosses the threshold once, the node re-evaluates
  /// and re-baselines, and sub-threshold wander never triggers. Links
  /// without a recorded baseline count as exceeded. `fresh[i]` is the
  /// probed value of `links[i]` (the probe measures only the links).
  bool drift_exceeded(std::size_t v, std::span<const graph::NodeId> links,
                      std::span<const double> fresh) const;

 private:
  bool cost_moved(double old_value, double new_value) const;

  std::vector<std::uint8_t> dirty_;
  std::size_t dirty_count_ = 0;
  double threshold_ = 0.0;
  /// Per-node last-evaluation baseline: parallel (link, value) rows.
  std::vector<std::vector<graph::NodeId>> base_links_;
  std::vector<std::vector<double>> base_values_;
};

}  // namespace egoist::overlay
