// A flat compressed-sparse-row snapshot of a Digraph, the one
// single-source search over it, and the one many-target pass over it.
//
// CsrGraph stores forward and reverse offset / endpoint / weight arrays
// plus an active bitmap, rebuilt in place from a Digraph. Edge-weight
// validation and inactive-endpoint filtering happen once at build time
// instead of inside every relaxation. A caller that walks one direction
// only builds that side (serving walks out-edges, paths_to in-edges);
// PathEngine builds both.
//
// CsrSearch is a Dijkstra over that snapshot along out-edges, for either
// fold (shortest or widest paths), optionally stopping once one target is
// settled. Its heap is an indexed 4-ary heap ordered by (value, node id):
// the exact pop order of graph::dijkstra's and graph::widest_paths'
// std::priority_queue over (value, id) pairs. Both relax only on a strict
// improvement, so a full run reproduces the reference's values *and*
// parent arrays bit for bit. Once the target is popped, its value, parent
// chain and first hop are final (every later pop is no better, and only a
// strictly better value rewrites them), so a stopped run answers exactly
// what the full row would.
//
// paths_to fills every node's values towards L targets at once: one
// label-correcting pass over the in-edges that relaxes whole L-wide rows.
// Each value is the fold's min (or max) over paths, which no visit order
// changes, so every lane equals graph::dijkstra / graph::widest_paths from
// its target on the reversed graph bit for bit.
// tests/graph/csr_search_test.cpp and tests/graph/paths_to_test.cpp hold
// the references.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/distance_matrix.hpp"
#include "graph/shortest_path.hpp"

namespace egoist::graph {

/// The adjacency a CsrGraph holds: out-edges (walks from a source),
/// in-edges (walks towards it), or both.
enum class CsrSides : std::uint8_t { kOut, kIn, kBoth };

/// Thrown by CsrSearch::run and paths_to when asked to walk a side their
/// graph lacks.
class CsrSideNotBuilt : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Immutable flat snapshot of a Digraph at a point in time. Activity flags
/// are baked in: out-edges of inactive sources and edges to inactive
/// targets are dropped at build time (algorithms on the live Digraph skip
/// them per relaxation; on a snapshot the filtering can be hoisted).
class CsrGraph {
 public:
  CsrGraph() = default;
  explicit CsrGraph(const Digraph& g, CsrSides sides = CsrSides::kBoth) {
    rebuild(g, sides);
  }

  /// Rebuilds the snapshot in place, reusing the flat buffers of the sides
  /// it builds and releasing the other's. Validates every stored weight
  /// (throws std::invalid_argument on a negative one), hoisting the
  /// per-relaxation check out of the traversal loops.
  void rebuild(const Digraph& g, CsrSides sides = CsrSides::kBoth);

  bool has_out_edges() const { return sides_ != CsrSides::kIn; }
  bool has_in_edges() const { return sides_ != CsrSides::kOut; }

  std::size_t node_count() const { return active_.size(); }
  /// Stored (active-to-active) edges only.
  std::size_t edge_count() const { return edge_count_; }

  bool is_active(NodeId u) const {
    return active_[static_cast<std::size_t>(u)] != 0;
  }

  /// Targets / weights of u's out-edges (parallel spans). Requires
  /// has_out_edges().
  std::span<const NodeId> out_targets(NodeId u) const {
    const auto i = static_cast<std::size_t>(u);
    return {target_.data() + offset_[i], offset_[i + 1] - offset_[i]};
  }
  std::span<const double> out_weights(NodeId u) const {
    const auto i = static_cast<std::size_t>(u);
    return {weight_.data() + offset_[i], offset_[i + 1] - offset_[i]};
  }

  /// Sources / weights of u's in-edges (reverse CSR, parallel spans).
  /// Requires has_in_edges().
  std::span<const NodeId> in_sources(NodeId u) const {
    const auto i = static_cast<std::size_t>(u);
    return {in_source_.data() + in_offset_[i], in_offset_[i + 1] - in_offset_[i]};
  }
  std::span<const double> in_weights(NodeId u) const {
    const auto i = static_cast<std::size_t>(u);
    return {in_weight_.data() + in_offset_[i], in_offset_[i + 1] - in_offset_[i]};
  }

  /// Active node ids, ascending.
  std::vector<NodeId> active_nodes() const;

  void check_node(NodeId u) const {
    if (u < 0 || static_cast<std::size_t>(u) >= active_.size()) {
      throw std::out_of_range("node id out of range");
    }
  }

 private:
  std::vector<std::size_t> offset_;     ///< size n + 1
  std::vector<NodeId> target_;
  std::vector<double> weight_;
  std::vector<std::size_t> in_offset_;  ///< size n + 1 (reverse CSR)
  std::vector<NodeId> in_source_;
  std::vector<double> in_weight_;
  std::vector<std::uint8_t> active_;    ///< bitmap, avoids vector<bool> reads
  std::vector<std::size_t> build_cursor_;  ///< rebuild() scratch
  std::size_t edge_count_ = 0;
  CsrSides sides_ = CsrSides::kBoth;
};

/// Passed as CsrSearch::Request::stop_at to run a search to completion.
inline constexpr NodeId kNoTarget = -1;

/// Single-source shortest or widest paths along the out-edges of a
/// CsrGraph, on caller-owned scratch. Per node the scratch holds the value,
/// the tree parent, the first hop (the node next to the source on the tree
/// path), the heap position and a generation stamp. The stamp is bumped per
/// run and never reset, so a node not touched by the latest run reads as
/// unreached, and one CsrSearch may serve any sequence of graphs and sizes.
/// Steady-state runs allocate nothing. Not thread-safe: one CsrSearch per
/// thread.
class CsrSearch {
 public:
  struct Request {
    /// Widest paths: max over paths of the minimum weight (bandwidth).
    /// Otherwise shortest paths: min over paths of the weight sum.
    bool widest = false;
    /// Stop once this node is settled (kNoTarget: settle everything).
    NodeId stop_at = kNoTarget;
  };

  /// Runs one search from `src`. An inactive source reaches nothing, not
  /// even itself (PathEngine's inactive rows). Throws CsrSideNotBuilt when
  /// `g` lacks out-edges, and std::out_of_range on an invalid `src` or
  /// `stop_at`.
  void run(const CsrGraph& g, NodeId src, Request request);
  void run(const CsrGraph& g, NodeId src) { run(g, src, Request{}); }

  /// After a run, for v in [0, node_count of its graph). A stopped run
  /// makes these final for the target and its parent chain only.
  bool reached(NodeId v) const { return live(v) != nullptr; }
  /// Path value: kUnreachable (shortest) or 0 (widest) when unreached; the
  /// source's own value is 0 (shortest) or +infinity (widest).
  double dist(NodeId v) const {
    const Slot* s = live(v);
    return s != nullptr ? s->dist : unreached_value_;
  }
  /// Tree predecessor; -1 at the source and at unreached nodes.
  NodeId parent(NodeId v) const {
    const Slot* s = live(v);
    return s != nullptr ? s->parent : NodeId{-1};
  }
  /// The node right after the source on the tree path to v; -1 at the
  /// source and at unreached nodes.
  NodeId first_hop(NodeId v) const {
    const Slot* s = live(v);
    return s != nullptr ? s->hop : NodeId{-1};
  }
  /// The tree path src..v, read off the parent chain. Empty when v is
  /// unreached.
  std::vector<NodeId> path_to(NodeId v) const;

  /// Nodes popped from the heap by the last run (the target included).
  std::size_t settled_count() const { return settled_; }

 private:
  struct Slot {
    double dist;
    NodeId parent;
    NodeId hop;
    std::int32_t heap_pos;  ///< -1 when not in the heap
    std::uint64_t stamp;    ///< == generation_ when touched by this run
  };
  struct HeapItem {
    double key;
    NodeId node;
  };

  const Slot* live(NodeId v) const {
    if (v < 0 || static_cast<std::size_t>(v) >= node_count_) {
      throw std::out_of_range("node id out of range");
    }
    const Slot& s = slot_[static_cast<std::size_t>(v)];
    return s.stamp == generation_ ? &s : nullptr;
  }

  template <bool kWidest>
  void search(const CsrGraph& g, NodeId src, NodeId stop_at);
  template <bool kWidest>
  void sift_up(std::size_t i);
  template <bool kWidest>
  void sift_down(std::size_t i);

  std::vector<Slot> slot_;
  std::vector<HeapItem> heap_;
  std::uint64_t generation_ = 0;
  std::size_t node_count_ = 0;
  std::size_t settled_ = 0;
  double unreached_value_ = kUnreachable;
};

/// The work one paths_to call did.
struct PathsToStats {
  std::size_t rounds = 0;           ///< worklist generations
  std::size_t row_relaxations = 0;  ///< in-edges scanned, L lanes each
};

/// Every node's shortest (or, `widest`, widest) path value towards each of
/// `targets`: afterwards `out` is n x L, and out(v, c) is the value of the
/// best path v -> targets[c] in `g`, i.e. graph::dijkstra /
/// graph::widest_paths from targets[c] on the reversed graph, at v. Unreached
/// cells read kUnreachable (shortest) or 0 (widest); an inactive target's
/// column stays unreached, even at the target itself. `out` is reshaped and
/// every cell written, so one matrix may serve any sequence of graphs.
///
/// One label-correcting pass: a worklist holds the rows that changed, and
/// each in-edge s -> u of a listed row u relaxes s's whole row lane by lane,
/// out(s, c) = better(combine(out(u, c), w), out(s, c)), through the same
/// detail:: fold helpers as CsrSearch, so +inf and NaN delay edges and
/// 0-bandwidth edges reach nothing. A node's row is listed at most once per
/// round. Work grows
/// with the relaxations (the initial fill aside, no round scans all n
/// rows); the worst case is one round per hop of the longest shortest path,
/// so a chain or ring runs about n rounds of one row each. Throws
/// CsrSideNotBuilt when `g` lacks in-edges and std::out_of_range on an
/// invalid target.
PathsToStats paths_to(const CsrGraph& g, std::span<const NodeId> targets,
                      bool widest, DistanceMatrix& out);

}  // namespace egoist::graph
