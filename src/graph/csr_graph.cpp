#include "graph/csr_graph.hpp"

#include <algorithm>
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
    // Reverse CSR (counting sort by target): repair seeds and in-edge
    // searches scan the edges *entering* a node.
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

template <bool kWidest, bool kInEdges>
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
    const std::span<const NodeId> ends =
        kInEdges ? g.in_sources(top.node) : g.out_targets(top.node);
    const std::span<const double> weights =
        kInEdges ? g.in_weights(top.node) : g.out_weights(top.node);
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
  if (request.in_edges ? !g.has_in_edges() : !g.has_out_edges()) {
    throw CsrSideNotBuilt(request.in_edges
                              ? "CsrSearch: graph has no in-edges"
                              : "CsrSearch: graph has no out-edges");
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
    if (request.in_edges) {
      search<true, true>(g, src, request.stop_at);
    } else {
      search<true, false>(g, src, request.stop_at);
    }
  } else if (request.in_edges) {
    search<false, true>(g, src, request.stop_at);
  } else {
    search<false, false>(g, src, request.stop_at);
  }
}

std::vector<NodeId> CsrSearch::path_to(NodeId v) const {
  std::vector<NodeId> path;
  if (!reached(v)) return path;
  for (NodeId x = v; x != -1; x = parent(x)) path.push_back(x);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace egoist::graph
