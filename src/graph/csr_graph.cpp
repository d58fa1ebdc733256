#include "graph/csr_graph.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "graph/semiring.hpp"

namespace egoist::graph {

namespace {

/// Calls visit(u, e) for every edge a snapshot keeps, after checking its
/// weight: the out-edges of active sources to active targets, sources
/// ascending, each source's edges in Digraph order.
template <typename Visit>
void for_each_kept_edge(const Digraph& g,
                        const std::vector<std::uint8_t>& active, Visit visit) {
  for (std::size_t u = 0; u < active.size(); ++u) {
    if (!active[u]) continue;  // an inactive source never relaxes edges
    for (const Edge& e : g.out_edges(static_cast<NodeId>(u))) {
      if (e.weight < 0.0) {
        throw std::invalid_argument("path engine requires non-negative weights");
      }
      if (active[static_cast<std::size_t>(e.to)]) visit(u, e);
    }
  }
}

template <typename... Vectors>
void release(Vectors&... vectors) {
  (Vectors().swap(vectors), ...);
}

}  // namespace

void CsrGraph::rebuild(const Digraph& g, CsrSides sides) {
  const std::size_t n = g.node_count();
  sides_ = sides;
  active_.assign(n, 0);
  for (std::size_t u = 0; u < n; ++u) {
    if (g.is_active(static_cast<NodeId>(u))) active_[u] = 1;
  }

  if (has_out_edges()) {
    offset_.assign(n + 1, 0);
    target_.clear();
    weight_.clear();
    target_.reserve(g.edge_count());
    weight_.reserve(g.edge_count());
    for_each_kept_edge(g, active_, [&](std::size_t u, const Edge& e) {
      ++offset_[u + 1];
      target_.push_back(e.to);
      weight_.push_back(e.weight);
    });
    for (std::size_t u = 0; u < n; ++u) offset_[u + 1] += offset_[u];
    edge_count_ = target_.size();
  } else {
    release(offset_, target_, weight_);
  }

  if (has_in_edges()) {
    // Reverse CSR (counting sort by target): repair seeds and paths_to
    // scan the edges *entering* a node.
    in_offset_.assign(n + 1, 0);
    for_each_kept_edge(g, active_, [&](std::size_t, const Edge& e) {
      ++in_offset_[static_cast<std::size_t>(e.to) + 1];
    });
    for (std::size_t u = 0; u < n; ++u) in_offset_[u + 1] += in_offset_[u];
    edge_count_ = in_offset_[n];
    in_source_.resize(edge_count_);
    in_weight_.resize(edge_count_);
    build_cursor_.assign(in_offset_.begin(), in_offset_.end() - 1);
    for_each_kept_edge(g, active_, [&](std::size_t u, const Edge& e) {
      const auto slot = build_cursor_[static_cast<std::size_t>(e.to)]++;
      in_source_[slot] = static_cast<NodeId>(u);
      in_weight_[slot] = e.weight;
    });
  } else {
    release(in_offset_, in_source_, in_weight_, build_cursor_);
  }
}

std::vector<NodeId> CsrGraph::active_nodes() const {
  std::vector<NodeId> out;
  for (std::size_t u = 0; u < active_.size(); ++u) {
    if (active_[u]) out.push_back(static_cast<NodeId>(u));
  }
  return out;
}

namespace {

constexpr std::size_t kArity = 4;

/// Heap order: the better value first, ties by node id, ascending for
/// shortest paths and descending for widest. That is the pop order of a
/// std::priority_queue over (value, id) pairs, min-first in graph::dijkstra
/// and max-first in graph::widest_paths.
template <bool kWidest, typename Item>
bool precedes(const Item& a, const Item& b) {
  if constexpr (kWidest) {
    return a.key > b.key || (a.key == b.key && a.node > b.node);
  } else {
    return a.key < b.key || (a.key == b.key && a.node < b.node);
  }
}

}  // namespace

template <bool kWidest>
void CsrSearch::sift_up(std::size_t i) {
  const HeapItem item = heap_[i];
  while (i > 0) {
    const std::size_t up = (i - 1) / kArity;
    if (!precedes<kWidest>(item, heap_[up])) break;
    heap_[i] = heap_[up];
    slot_[static_cast<std::size_t>(heap_[i].node)].heap_pos =
        static_cast<std::int32_t>(i);
    i = up;
  }
  heap_[i] = item;
  slot_[static_cast<std::size_t>(item.node)].heap_pos =
      static_cast<std::int32_t>(i);
}

template <bool kWidest>
void CsrSearch::sift_down(std::size_t i) {
  const std::size_t size = heap_.size();
  const HeapItem item = heap_[i];
  while (true) {
    const std::size_t first = i * kArity + 1;
    if (first >= size) break;
    const std::size_t last = std::min(first + kArity, size);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (precedes<kWidest>(heap_[c], heap_[best])) best = c;
    }
    if (!precedes<kWidest>(heap_[best], item)) break;
    heap_[i] = heap_[best];
    slot_[static_cast<std::size_t>(heap_[i].node)].heap_pos =
        static_cast<std::int32_t>(i);
    i = best;
  }
  heap_[i] = item;
  slot_[static_cast<std::size_t>(item.node)].heap_pos =
      static_cast<std::int32_t>(i);
}

template <bool kWidest>
void CsrSearch::search(const CsrGraph& g, NodeId src, NodeId stop_at) {
  const auto better = detail::make_better(std::bool_constant<kWidest>{});
  const auto s = static_cast<std::size_t>(src);
  slot_[s] = {detail::source_value<kWidest>(), -1, -1, -1, generation_};
  heap_.clear();
  heap_.push_back({slot_[s].dist, src});
  slot_[s].heap_pos = 0;
  while (!heap_.empty()) {
    const HeapItem top = heap_.front();
    slot_[static_cast<std::size_t>(top.node)].heap_pos = -1;
    const HeapItem back = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = back;
      sift_down<kWidest>(0);
    }
    ++settled_;
    if (top.node == stop_at) return;

    // First hop: the neighbour itself when relaxing from the source (whose
    // own hop is -1), else the settled node's own first hop.
    const NodeId hop = slot_[static_cast<std::size_t>(top.node)].hop;
    const std::span<const NodeId> ends = g.out_targets(top.node);
    const std::span<const double> weights = g.out_weights(top.node);
    for (std::size_t i = 0; i < ends.size(); ++i) {
      const double candidate = detail::combine<kWidest>(top.key, weights[i]);
      Slot& next = slot_[static_cast<std::size_t>(ends[i])];
      const bool touched = next.stamp == generation_;
      // Unreached reads as the fold's init value and a relaxation must
      // strictly improve it, so a +inf or NaN delay edge, or a 0-bandwidth
      // edge, reaches nothing, as in graph::dijkstra / widest_paths.
      if (!better(candidate, touched ? next.dist : unreached_value_)) continue;
      if (!touched) next = {0.0, -1, -1, -1, generation_};
      next.dist = candidate;
      next.parent = top.node;
      next.hop = hop == -1 ? ends[i] : hop;
      if (next.heap_pos < 0) {
        heap_.push_back({candidate, ends[i]});
        sift_up<kWidest>(heap_.size() - 1);
      } else {
        heap_[static_cast<std::size_t>(next.heap_pos)].key = candidate;
        sift_up<kWidest>(static_cast<std::size_t>(next.heap_pos));
      }
    }
  }
}

void CsrSearch::run(const CsrGraph& g, NodeId src, Request request) {
  if (!g.has_out_edges()) {
    throw CsrSideNotBuilt("CsrSearch: graph has no out-edges");
  }
  g.check_node(src);
  if (request.stop_at != kNoTarget) g.check_node(request.stop_at);
  node_count_ = g.node_count();
  if (slot_.size() < node_count_) slot_.resize(node_count_);
  ++generation_;
  settled_ = 0;
  unreached_value_ =
      request.widest ? detail::init_value<true>() : detail::init_value<false>();
  if (!g.is_active(src)) return;
  if (request.widest) {
    search<true>(g, src, request.stop_at);
  } else {
    search<false>(g, src, request.stop_at);
  }
}

std::vector<NodeId> CsrSearch::path_to(NodeId v) const {
  std::vector<NodeId> path;
  if (!reached(v)) return path;
  for (NodeId x = v; x != -1; x = parent(x)) path.push_back(x);
  std::reverse(path.begin(), path.end());
  return path;
}

namespace {

/// Relaxes the row `to` of an edge's source through the edge, lane by
/// lane, from the row `from` of its target; returns whether any lane
/// changed. The change flag ORs the bit differences of each lane's old and
/// new value: GCC vectorizes that loop, where a bool or a count of changed
/// lanes keeps it scalar.
template <bool kWidest>
bool relax_row(const double* from, double weight, double* to,
               std::size_t lanes) {
  const auto better = detail::make_better(std::bool_constant<kWidest>{});
  std::uint64_t changed = 0;
  for (std::size_t c = 0; c < lanes; ++c) {
    const double old = to[c];
    const double candidate = detail::combine<kWidest>(from[c], weight);
    const double next = better(candidate, old) ? candidate : old;
    changed |= std::bit_cast<std::uint64_t>(next) ^
               std::bit_cast<std::uint64_t>(old);
    to[c] = next;
  }
  return changed != 0;
}

template <bool kWidest>
PathsToStats label_correct(const CsrGraph& g, std::span<const NodeId> targets,
                           DistanceMatrix& out) {
  const std::size_t lanes = targets.size();
  out.reset(g.node_count(), lanes, detail::init_value<kWidest>());
  // `listed`: the row waits in this round's frontier (unvisited yet) or in
  // the next one. A row changed before its visit this round is read then,
  // so it is not listed twice.
  std::vector<std::uint8_t> listed(g.node_count(), 0);
  std::vector<NodeId> frontier;
  std::vector<NodeId> next;
  for (std::size_t c = 0; c < lanes; ++c) {
    const auto t = static_cast<std::size_t>(targets[c]);
    if (!g.is_active(targets[c])) continue;
    out(t, c) = detail::source_value<kWidest>();
    if (!listed[t]) {
      listed[t] = 1;
      frontier.push_back(targets[c]);
    }
  }

  PathsToStats stats;
  while (!frontier.empty()) {
    ++stats.rounds;
    for (const NodeId u : frontier) {
      listed[static_cast<std::size_t>(u)] = 0;
      const double* from = out.row(static_cast<std::size_t>(u)).data();
      const std::span<const NodeId> sources = g.in_sources(u);
      const std::span<const double> weights = g.in_weights(u);
      stats.row_relaxations += sources.size();
      for (std::size_t i = 0; i < sources.size(); ++i) {
        const auto s = static_cast<std::size_t>(sources[i]);
        if (relax_row<kWidest>(from, weights[i], out.row(s).data(), lanes) &&
            !listed[s]) {
          listed[s] = 1;
          next.push_back(sources[i]);
        }
      }
    }
    frontier.swap(next);
    next.clear();
  }
  return stats;
}

}  // namespace

PathsToStats paths_to(const CsrGraph& g, std::span<const NodeId> targets,
                      bool widest, DistanceMatrix& out) {
  if (!g.has_in_edges()) {
    throw CsrSideNotBuilt("paths_to: graph has no in-edges");
  }
  for (const NodeId t : targets) g.check_node(t);
  return widest ? label_correct<true>(g, targets, out)
                : label_correct<false>(g, targets, out);
}

}  // namespace egoist::graph
