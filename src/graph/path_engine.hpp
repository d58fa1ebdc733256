// Epoch-shared residual shortest/widest paths over a CSR snapshot.
//
// Best-response evaluation needs, for every node i, the all-pairs distances
// of the residual graph G_{-i} (the announced overlay minus i's out-edges).
// Materializing each G_{-i} as a fresh Digraph and running n full
// Dijkstras on it costs O(n^2 m log n) work per epoch plus hundreds of
// allocations per node. PathEngine is the overlay's only residual-path
// implementation and avoids both with three layers:
//
// - CsrGraph (graph/csr_graph.hpp): a flat compressed-sparse-row snapshot
//   (forward + reverse offset / endpoint / weight arrays + an active
//   bitmap) rebuilt in place from a Digraph. Edge-weight validation and
//   inactive-endpoint filtering happen once at build time instead of
//   inside every relaxation.
// - Residual *views*: every traversal takes an `exclude_out_edges_of`
//   source whose edge range is skipped, so G_{-i} costs O(1) instead of an
//   O(n + m) graph copy. Paths *through* the excluded node are unaffected
//   (its in-edges remain), exactly as in a residual copy of the graph.
// - Shared base trees: prepare_shortest() / prepare_widest() compute one
//   SSSP tree per source (dist row + parent links), shared by every later
//   query on the snapshot. A query excluding node i differs
//   from a base row only at the *proper descendants of i in that source's
//   tree*: every other destination's tree path avoids i's out-edges, so
//   its base distance is provably the residual distance, bit for bit. The
//   descendants are repaired by a small Dijkstra seeded from the edges
//   entering the affected set.
//
// The epoch loop is sequential best response: after a node re-announces,
// only that node's out-edge row changes. update_out_edges() re-snapshots
// the row and patches every base tree in place — invalidate the old
// descendants, reseed them, and propagate any improvements the new row
// creates — so the trees survive the whole epoch instead of being rebuilt
// n times. Per epoch this turns n * n full Dijkstras into n (one base
// build) plus output-bounded repairs.
//
// Bit-exactness: a distance is the minimum over paths of the left-to-right
// IEEE sum of edge weights (min of exact weights for widest); that
// min-fold does not depend on heap arity, visitation order, or which
// algorithm enumerates the paths, and every kept row value is squeezed
// between the full-graph minimum and a surviving path that attains it.
// The equivalence suite in tests/graph/path_engine_test.cpp enforces all
// of this against graph::all_pairs_* on residual Digraph copies, which
// stay as the test reference.
//
// Every query is const and writes only a caller-owned QueryScratch (4-ary
// heap, stamp marks, scratch lists), so steady-state queries allocate
// nothing and any number of threads may query one prepared engine. The
// base-tree arenas are reused across rebuild() calls.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/digraph.hpp"
#include "graph/distance_matrix.hpp"

namespace egoist::graph {

/// Passed as `exclude_out_edges_of` when no source is excluded.
inline constexpr NodeId kNoExclude = -1;

/// Reusable residual-path solver over a CsrGraph snapshot.
///
/// Thread model: every mutation (rebuild, update_out_edges, prepare_*)
/// requires exclusive access. Queries are const and touch only the
/// caller-owned QueryScratch, so once the base trees are prepared — or
/// with no base trees at all (they fall back to direct SSSP) — any number
/// of threads may query concurrently, one QueryScratch per thread.
class PathEngine {
  struct HeapItem {
    double key;
    NodeId node;
  };

 public:
  /// Caller-owned mutable state for the queries: the 4-ary
  /// heap plus the descendant-repair scratch (epoch-stamped membership
  /// marks, collected-descendant lists). One per querying thread; reusable
  /// across queries, snapshots, and engines (stale marks can never collide
  /// because the stamp is bumped per query and never reset).
  class QueryScratch {
   private:
    friend class PathEngine;
    std::vector<HeapItem> heap;
    std::vector<std::uint64_t> affected_mark;  ///< epoch-stamped membership
    std::uint64_t mark_epoch = 0;
    std::vector<NodeId> desc_buf;              ///< collected descendants
    std::vector<std::size_t> child_offset;     ///< deep-subtree DFS scratch
    std::vector<std::size_t> child_cursor;
    std::vector<NodeId> child;
    std::vector<NodeId> desc_stack;
  };

  PathEngine() = default;
  explicit PathEngine(const Digraph& g) { rebuild(g); }

  /// Takes a fresh snapshot of `g`, reusing all internal buffers, and
  /// invalidates the shared base trees (until the next prepare_*).
  void rebuild(const Digraph& g);

  /// Re-snapshots `g` after a change confined to `u`'s out-edges (the
  /// sequential-epoch mutation: one node re-announced its links) and
  /// patches the base trees in place instead of invalidating them.
  /// If activity flags changed — or anything beyond u's row differs — the
  /// incremental contract is void; activity changes are detected and fall
  /// back to a full invalidation, other rows are the caller's contract.
  void update_out_edges(NodeId u, const Digraph& g);

  /// Sources whose base-tree dist rows the most recent update_out_edges
  /// patch actually changed (value-level detection across both prepared
  /// semirings, deduplicated, ascending). A source absent here kept every
  /// base distance bit-identical, so any consumer caching per-source
  /// results — the overlay's dirty tracker marks exactly these nodes —
  /// need not revisit it. Meaningless (and empty) when
  /// last_update_rebuilt() is true.
  std::span<const NodeId> last_update_invalidated() const {
    return last_update_invalidated_;
  }

  /// True when the most recent update_out_edges (or rebuild) call fell
  /// back to a full invalidation — size change, no valid base trees, or an
  /// activity flip — so *every* source row must be treated as changed.
  bool last_update_rebuilt() const { return last_update_rebuilt_; }

  const CsrGraph& csr() const { return csr_; }
  std::size_t node_count() const { return csr_.node_count(); }

  /// Builds the shared base trees for one semiring (a no-op while they are
  /// valid). Queries are bit-identical with or without them; prepared,
  /// each residual row is a base row plus a descendant repair instead of
  /// a full SSSP.
  void prepare_shortest();
  void prepare_widest();
  bool shortest_prepared() const { return shortest_base_.valid; }
  bool widest_prepared() const { return widest_base_.valid; }

  /// Shortest-path distances from src with exclude's out-edge range
  /// skipped (kNoExclude = none). Writes the full row: kUnreachable for
  /// unreached nodes, and the whole row when src is inactive (mirroring
  /// all_pairs_shortest_paths, which leaves inactive rows unreachable).
  /// Served from the shared base trees when prepared; runs a direct SSSP
  /// otherwise. The results are bit-identical either way.
  /// dist_out.size() must be node_count().
  void shortest_from(NodeId src, NodeId exclude_out_edges_of,
                     std::span<double> dist_out, QueryScratch& scratch) const;

  /// Widest-path (max-min) bottlenecks from src; 0 for unreached nodes,
  /// +infinity at an active source's own entry.
  void widest_from(NodeId src, NodeId exclude_out_edges_of,
                   std::span<double> bottleneck_out,
                   QueryScratch& scratch) const;

  /// All-pairs into a flat matrix: out(v, j) = d_{G - exclude}(v, j),
  /// served row-by-row from the base trees (or direct SSSPs when they are
  /// not prepared).
  void all_shortest(NodeId exclude_out_edges_of, DistanceMatrix& out,
                    QueryScratch& scratch) const;
  void all_widest(NodeId exclude_out_edges_of, DistanceMatrix& out,
                  QueryScratch& scratch) const;

 private:
  /// Shared per-snapshot base trees for one semiring (shortest or widest):
  /// one dist row and parent array per source. The proper descendants of u
  /// in tree v — found by level scans over the parent array — are the only
  /// destinations whose base distance can change when u's out-edges are
  /// excluded (queries) or replaced (updates).
  struct BaseTrees {
    bool valid = false;
    DistanceMatrix dist;
    std::vector<NodeId> parent;  ///< n * n; -1 at sources and unreached
    /// Children per node per tree, kept in lockstep with `parent`: a node
    /// with no children in a tree has no descendants there, which lets
    /// both repair and update skip that tree without scanning it.
    std::vector<std::int32_t> child_count;  ///< n * n
  };

  template <bool kWidest>
  void run(QueryScratch& qs, NodeId src, NodeId exclude, std::span<double> out,
           NodeId* parent_row) const;

  template <bool kWidest>
  void ensure_base(BaseTrees& base);

  /// Collects the proper descendants of u in the tree given by
  /// `parent_row` into qs.desc_buf, marking each with `mark` in
  /// qs.affected_mark. `child_count_row` short-circuits leaf nodes.
  /// Returns the number collected.
  std::size_t collect_descendants(QueryScratch& qs, const NodeId* parent_row,
                                  const std::int32_t* child_count_row,
                                  NodeId u, std::uint64_t mark) const;

  /// Copies tree src's base row into `out`, then recomputes the proper
  /// descendants of `exclude` in that tree by a Dijkstra seeded from the
  /// edges entering the affected set (relaxation stays inside the set:
  /// removing out-edges cannot improve any distance).
  template <bool kWidest>
  void repair_row(QueryScratch& qs, const BaseTrees& base, NodeId src,
                  NodeId exclude, std::span<double> out) const;

  /// Patches tree src in place after u's out-edge row changed: invalidate
  /// u's old descendants, reseed them from the new snapshot, and let the
  /// relaxation escape the set to propagate improvements the new row
  /// enables.
  /// Returns true when the patch changed any value of tree src's dist row
  /// (the signal behind last_update_invalidated()).
  template <bool kWidest>
  bool update_tree(BaseTrees& base, NodeId src, NodeId u);

  template <bool kWidest>
  void all_rows(QueryScratch& qs, NodeId exclude, DistanceMatrix& out) const;

  CsrGraph csr_;
  /// Engine-owned scratch behind the base-tree build and the in-place tree
  /// updates.
  QueryScratch scratch_;
  BaseTrees shortest_base_;
  BaseTrees widest_base_;
  std::vector<std::uint8_t> active_before_;   ///< update_out_edges guard

  /// last_update_* bookkeeping (see the public accessors).
  std::vector<NodeId> last_update_invalidated_;
  bool last_update_rebuilt_ = true;
  std::vector<double> update_row_before_;        ///< update_tree compare scratch
  std::vector<std::uint8_t> update_changed_mark_;  ///< dedup across semirings
};

}  // namespace egoist::graph
