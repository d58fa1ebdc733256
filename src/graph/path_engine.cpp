#include "graph/path_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "graph/semiring.hpp"

namespace egoist::graph {

namespace {

// 4-ary heap primitives over a flat vector. Wider nodes trade a deeper
// sift for fewer cache lines touched per pop. `better` orders the heap top
// (less-than for shortest paths, greater-than for widest).
constexpr std::size_t kArity = 4;

template <typename Item, typename Better>
void sift_up(std::vector<Item>& h, std::size_t i, Better better) {
  Item item = h[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!better(item.key, h[parent].key)) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = item;
}

template <typename Item, typename Better>
void sift_down(std::vector<Item>& h, std::size_t i, Better better) {
  const std::size_t size = h.size();
  Item item = h[i];
  while (true) {
    const std::size_t first = i * kArity + 1;
    if (first >= size) break;
    const std::size_t last = std::min(first + kArity, size);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (better(h[c].key, h[best].key)) best = c;
    }
    if (!better(h[best].key, item.key)) break;
    h[i] = h[best];
    i = best;
  }
  h[i] = item;
}

using detail::combine;
using detail::init_value;
using detail::make_better;
using detail::source_value;

}  // namespace

void PathEngine::rebuild(const Digraph& g) {
  csr_.rebuild(g);
  shortest_base_.valid = false;
  widest_base_.valid = false;
  last_update_rebuilt_ = true;
  last_update_invalidated_.clear();
}

void PathEngine::update_out_edges(NodeId u, const Digraph& g) {
  const std::size_t n = csr_.node_count();
  if (g.node_count() != n || (!shortest_base_.valid && !widest_base_.valid)) {
    rebuild(g);
    return;
  }
  csr_.check_node(u);
  active_before_.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    active_before_[v] = csr_.is_active(static_cast<NodeId>(v)) ? 1 : 0;
  }
  const bool had_shortest = shortest_base_.valid;
  const bool had_widest = widest_base_.valid;
  csr_.rebuild(g);
  for (std::size_t v = 0; v < n; ++v) {
    if ((csr_.is_active(static_cast<NodeId>(v)) ? 1 : 0) != active_before_[v]) {
      // Membership changed: the one-row contract is void, start over.
      shortest_base_.valid = false;
      widest_base_.valid = false;
      last_update_rebuilt_ = true;
      last_update_invalidated_.clear();
      return;
    }
  }
  last_update_rebuilt_ = false;
  last_update_invalidated_.clear();
  update_changed_mark_.assign(n, 0);
  if (had_shortest) {
    for (std::size_t src = 0; src < n; ++src) {
      if (update_tree<false>(shortest_base_, static_cast<NodeId>(src), u)) {
        update_changed_mark_[src] = 1;
      }
    }
  }
  if (had_widest) {
    for (std::size_t src = 0; src < n; ++src) {
      if (update_tree<true>(widest_base_, static_cast<NodeId>(src), u)) {
        update_changed_mark_[src] = 1;
      }
    }
  }
  for (std::size_t src = 0; src < n; ++src) {
    if (update_changed_mark_[src] != 0) {
      last_update_invalidated_.push_back(static_cast<NodeId>(src));
    }
  }
}

template <bool kWidest>
void PathEngine::run(QueryScratch& qs, NodeId src, NodeId exclude,
                     std::span<double> out, NodeId* parent_row) const {
  const double init = init_value<kWidest>();
  std::fill(out.begin(), out.end(), init);
  if (parent_row != nullptr) {
    std::fill(parent_row, parent_row + out.size(), NodeId{-1});
  }
  if (!csr_.is_active(src)) return;  // all_pairs leaves inactive rows unreached
  out[static_cast<std::size_t>(src)] = source_value<kWidest>();

  const auto better = make_better(std::bool_constant<kWidest>{});
  auto& heap = qs.heap;
  heap.clear();
  heap.push_back({out[static_cast<std::size_t>(src)], src});
  while (!heap.empty()) {
    const HeapItem top = heap.front();
    heap.front() = heap.back();
    heap.pop_back();
    if (!heap.empty()) sift_down(heap, 0, better);

    const auto u = static_cast<std::size_t>(top.node);
    if (better(out[u], top.key)) continue;  // stale entry
    if (top.node == exclude) continue;      // residual view: G_{-exclude}

    const auto targets = csr_.out_targets(top.node);
    const auto weights = csr_.out_weights(top.node);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const auto v = static_cast<std::size_t>(targets[i]);
      const double candidate = combine<kWidest>(top.key, weights[i]);
      if (better(candidate, out[v])) {
        out[v] = candidate;
        if (parent_row != nullptr) parent_row[v] = top.node;
        heap.push_back({candidate, targets[i]});
        sift_up(heap, heap.size() - 1, better);
      }
    }
  }
}

template <bool kWidest>
void PathEngine::ensure_base(BaseTrees& base) {
  if (base.valid) return;
  const std::size_t n = csr_.node_count();
  base.dist.reshape(n, n);       // every row is fully written by run()
  base.parent.resize(n * n);     // likewise
  base.child_count.assign(n * n, 0);

  // One SSSP tree per source.
  for (std::size_t src = 0; src < n; ++src) {
    NodeId* parent_row = base.parent.data() + src * n;
    run<kWidest>(scratch_, static_cast<NodeId>(src), kNoExclude,
                 base.dist.row(src), parent_row);
    std::int32_t* counts = base.child_count.data() + src * n;
    for (std::size_t j = 0; j < n; ++j) {
      if (parent_row[j] >= 0) ++counts[static_cast<std::size_t>(parent_row[j])];
    }
  }
  base.valid = true;
}

std::size_t PathEngine::collect_descendants(QueryScratch& qs,
                                            const NodeId* parent_row,
                                            const std::int32_t* child_count_row,
                                            NodeId u, std::uint64_t mark) const {
  const std::size_t n = csr_.node_count();
  qs.desc_buf.clear();
  // Leaf (or unreached) in this tree: nothing below it, skip the scans.
  if (child_count_row[static_cast<std::size_t>(u)] == 0) return 0;
  // Level scans: each sweep admits nodes whose tree parent is u or already
  // collected. Overlay SP trees are shallow (log-ish depth), so a handful
  // of O(n) integer scans beats building explicit child lists.
  constexpr int kMaxScans = 16;
  for (int scan = 0; scan < kMaxScans; ++scan) {
    const std::size_t before = qs.desc_buf.size();
    for (std::size_t j = 0; j < n; ++j) {
      if (qs.affected_mark[j] == mark) continue;
      const NodeId p = parent_row[j];
      if (p < 0) continue;
      if (p == u || qs.affected_mark[static_cast<std::size_t>(p)] == mark) {
        qs.affected_mark[j] = mark;
        qs.desc_buf.push_back(static_cast<NodeId>(j));
      }
    }
    if (qs.desc_buf.size() == before) return qs.desc_buf.size();
  }

  // Deep subtree: finish with explicit child lists + DFS (same mark, so
  // already-collected nodes are kept and not revisited).
  qs.child_offset.assign(n + 1, 0);
  for (std::size_t j = 0; j < n; ++j) {
    if (parent_row[j] >= 0) {
      ++qs.child_offset[static_cast<std::size_t>(parent_row[j]) + 1];
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    qs.child_offset[v + 1] += qs.child_offset[v];
  }
  qs.child_cursor.assign(qs.child_offset.begin(), qs.child_offset.end() - 1);
  qs.child.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    if (parent_row[j] >= 0) {
      qs.child[qs.child_cursor[static_cast<std::size_t>(parent_row[j])]++] =
          static_cast<NodeId>(j);
    }
  }
  qs.desc_stack.clear();
  qs.desc_stack.push_back(u);
  for (NodeId d : qs.desc_buf) qs.desc_stack.push_back(d);
  while (!qs.desc_stack.empty()) {
    const auto x = static_cast<std::size_t>(qs.desc_stack.back());
    qs.desc_stack.pop_back();
    for (std::size_t c = qs.child_offset[x]; c < qs.child_offset[x + 1]; ++c) {
      const NodeId ch = qs.child[c];
      if (qs.affected_mark[static_cast<std::size_t>(ch)] == mark) continue;
      qs.affected_mark[static_cast<std::size_t>(ch)] = mark;
      qs.desc_buf.push_back(ch);
      qs.desc_stack.push_back(ch);
    }
  }
  return qs.desc_buf.size();
}

template <bool kWidest>
void PathEngine::repair_row(QueryScratch& qs, const BaseTrees& base, NodeId src,
                            NodeId exclude, std::span<double> out) const {
  const std::size_t s = static_cast<std::size_t>(src);
  const double init = init_value<kWidest>();

  if (!csr_.is_active(src)) {
    std::fill(out.begin(), out.end(), init);
    return;
  }
  if (src == exclude) {
    // G_{-src} from src: no out-edges, only the source entry is set.
    std::fill(out.begin(), out.end(), init);
    out[s] = source_value<kWidest>();
    return;
  }
  const auto row = base.dist.row(s);
  std::copy(row.begin(), row.end(), out.begin());
  if (exclude == kNoExclude || !csr_.is_active(exclude)) return;

  // Proper descendants of `exclude` in tree(src): the only destinations
  // whose tree path uses one of exclude's out-edges. Everything else keeps
  // its base distance (its tree path survives in G_{-exclude}, and a
  // subset-minimum cannot drop below the full-graph minimum it attains).
  const std::size_t n = csr_.node_count();
  const NodeId* parent_row = base.parent.data() + s * n;
  const std::int32_t* count_row = base.child_count.data() + s * n;
  if (qs.affected_mark.size() < n) qs.affected_mark.resize(n, 0);
  const std::uint64_t mark = ++qs.mark_epoch;
  if (collect_descendants(qs, parent_row, count_row, exclude, mark) == 0) {
    return;
  }

  const auto better = make_better(std::bool_constant<kWidest>{});
  auto& heap = qs.heap;
  heap.clear();
  for (const NodeId a : qs.desc_buf) out[static_cast<std::size_t>(a)] = init;
  // Seed each affected node from edges entering the set (never from
  // `exclude` itself), then run Dijkstra restricted to the set: values
  // outside it are final, because removing edges cannot improve them.
  for (const NodeId a : qs.desc_buf) {
    const auto sources = csr_.in_sources(a);
    const auto weights = csr_.in_weights(a);
    double best = init;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const auto w = static_cast<std::size_t>(sources[i]);
      if (sources[i] == exclude || qs.affected_mark[w] == mark) continue;
      const double dw = out[w];
      if (dw == init) continue;
      const double candidate = combine<kWidest>(dw, weights[i]);
      if (better(candidate, best)) best = candidate;
    }
    if (best != init) {
      out[static_cast<std::size_t>(a)] = best;
      heap.push_back({best, a});
      sift_up(heap, heap.size() - 1, better);
    }
  }
  while (!heap.empty()) {
    const HeapItem top = heap.front();
    heap.front() = heap.back();
    heap.pop_back();
    if (!heap.empty()) sift_down(heap, 0, better);
    const auto u = static_cast<std::size_t>(top.node);
    if (better(out[u], top.key)) continue;  // stale
    const auto targets = csr_.out_targets(top.node);
    const auto weights = csr_.out_weights(top.node);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const auto v = static_cast<std::size_t>(targets[i]);
      if (qs.affected_mark[v] != mark) continue;  // outside values are final
      const double candidate = combine<kWidest>(top.key, weights[i]);
      if (better(candidate, out[v])) {
        out[v] = candidate;
        heap.push_back({candidate, targets[i]});
        sift_up(heap, heap.size() - 1, better);
      }
    }
  }
}

template <bool kWidest>
bool PathEngine::update_tree(BaseTrees& base, NodeId src, NodeId u) {
  if (!csr_.is_active(src)) return false;  // row stays all-unreached
  const std::size_t n = csr_.node_count();
  const std::size_t s = static_cast<std::size_t>(src);
  const auto out = base.dist.row(s);
  NodeId* parent_row = base.parent.data() + s * n;
  std::int32_t* count_row = base.child_count.data() + s * n;
  QueryScratch& qs = scratch_;
  if (src == u) {
    // Every distance from u runs over u's own (replaced) out-edges.
    update_row_before_.assign(out.begin(), out.end());
    run<kWidest>(qs, src, kNoExclude, out, parent_row);
    std::fill(count_row, count_row + n, 0);
    for (std::size_t j = 0; j < n; ++j) {
      if (parent_row[j] >= 0) ++count_row[static_cast<std::size_t>(parent_row[j])];
    }
    return !std::equal(update_row_before_.begin(), update_row_before_.end(),
                       out.begin());
  }
  const double init = init_value<kWidest>();
  const auto better = make_better(std::bool_constant<kWidest>{});
  if (qs.affected_mark.size() < n) qs.affected_mark.resize(n, 0);
  const std::uint64_t mark = ++qs.mark_epoch;
  collect_descendants(qs, parent_row, count_row, u, mark);

  // Change detection: the only values the patch can touch are the
  // invalidated descendants (saved here, compared at the end) and nodes
  // the improvement relaxation escapes to (any such write is a change by
  // construction — `better` only ever overwrites with a different value).
  update_row_before_.clear();
  for (const NodeId a : qs.desc_buf) {
    update_row_before_.push_back(out[static_cast<std::size_t>(a)]);
  }
  bool escaped_write = false;

  // Child counts track every parent change below.
  auto set_parent = [&](std::size_t t, NodeId p) {
    const NodeId old = parent_row[t];
    if (old == p) return;
    if (old >= 0) --count_row[static_cast<std::size_t>(old)];
    if (p >= 0) ++count_row[static_cast<std::size_t>(p)];
    parent_row[t] = p;
  };

  auto& heap = qs.heap;
  heap.clear();
  for (const NodeId a : qs.desc_buf) {
    out[static_cast<std::size_t>(a)] = init;
    set_parent(static_cast<std::size_t>(a), -1);
  }
  // Reseed the invalidated descendants from edges entering the set —
  // including edges out of u, at their *new* weights.
  for (const NodeId a : qs.desc_buf) {
    const auto sources = csr_.in_sources(a);
    const auto weights = csr_.in_weights(a);
    double best = init;
    NodeId best_parent = -1;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const auto w = static_cast<std::size_t>(sources[i]);
      if (qs.affected_mark[w] == mark) continue;
      const double dw = out[w];
      if (dw == init) continue;
      const double candidate = combine<kWidest>(dw, weights[i]);
      if (better(candidate, best)) {
        best = candidate;
        best_parent = sources[i];
      }
    }
    if (best != init) {
      out[static_cast<std::size_t>(a)] = best;
      set_parent(static_cast<std::size_t>(a), best_parent);
      heap.push_back({best, a});
      sift_up(heap, heap.size() - 1, better);
    }
  }
  // The new row may also *improve* nodes outside the invalidated set;
  // seed those improvements from u directly...
  const double du = out[static_cast<std::size_t>(u)];
  if (du != init) {
    const auto targets = csr_.out_targets(u);
    const auto weights = csr_.out_weights(u);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const auto t = static_cast<std::size_t>(targets[i]);
      if (qs.affected_mark[t] == mark) continue;  // seeded above
      const double candidate = combine<kWidest>(du, weights[i]);
      if (better(candidate, out[t])) {
        out[t] = candidate;
        escaped_write = true;
        set_parent(t, u);
        heap.push_back({candidate, targets[i]});
        sift_up(heap, heap.size() - 1, better);
      }
    }
  }
  // ...and let the relaxation escape the set: unlike the query-side
  // repair, an update can lower (shortest) / raise (widest) values
  // anywhere downstream of the change.
  while (!heap.empty()) {
    const HeapItem top = heap.front();
    heap.front() = heap.back();
    heap.pop_back();
    if (!heap.empty()) sift_down(heap, 0, better);
    const auto x = static_cast<std::size_t>(top.node);
    if (better(out[x], top.key)) continue;  // stale
    const auto targets = csr_.out_targets(top.node);
    const auto weights = csr_.out_weights(top.node);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const auto t = static_cast<std::size_t>(targets[i]);
      const double candidate = combine<kWidest>(top.key, weights[i]);
      if (better(candidate, out[t])) {
        out[t] = candidate;
        if (qs.affected_mark[t] != mark) escaped_write = true;
        set_parent(t, top.node);
        heap.push_back({candidate, targets[i]});
        sift_up(heap, heap.size() - 1, better);
      }
    }
  }
  if (escaped_write) return true;
  for (std::size_t i = 0; i < qs.desc_buf.size(); ++i) {
    const auto a = static_cast<std::size_t>(qs.desc_buf[i]);
    if (out[a] != update_row_before_[i]) return true;
  }
  return false;
}

void PathEngine::prepare_shortest() { ensure_base<false>(shortest_base_); }

void PathEngine::prepare_widest() { ensure_base<true>(widest_base_); }

void PathEngine::shortest_from(NodeId src, NodeId exclude,
                               std::span<double> dist_out,
                               QueryScratch& qs) const {
  csr_.check_node(src);
  if (exclude != kNoExclude) csr_.check_node(exclude);
  if (dist_out.size() != csr_.node_count()) {
    throw std::invalid_argument("output row size mismatch");
  }
  if (shortest_base_.valid) {
    repair_row<false>(qs, shortest_base_, src, exclude, dist_out);
  } else {
    run<false>(qs, src, exclude, dist_out, nullptr);
  }
}

void PathEngine::widest_from(NodeId src, NodeId exclude,
                             std::span<double> bottleneck_out,
                             QueryScratch& qs) const {
  csr_.check_node(src);
  if (exclude != kNoExclude) csr_.check_node(exclude);
  if (bottleneck_out.size() != csr_.node_count()) {
    throw std::invalid_argument("output row size mismatch");
  }
  if (widest_base_.valid) {
    repair_row<true>(qs, widest_base_, src, exclude, bottleneck_out);
  } else {
    run<true>(qs, src, exclude, bottleneck_out, nullptr);
  }
}

template <bool kWidest>
void PathEngine::all_rows(QueryScratch& qs, NodeId exclude,
                          DistanceMatrix& out) const {
  if (exclude != kNoExclude) csr_.check_node(exclude);
  const std::size_t n = csr_.node_count();
  const BaseTrees& base = kWidest ? widest_base_ : shortest_base_;
  out.reshape(n, n);
  for (std::size_t src = 0; src < n; ++src) {
    if (base.valid) {
      repair_row<kWidest>(qs, base, static_cast<NodeId>(src), exclude,
                          out.row(src));
    } else {
      run<kWidest>(qs, static_cast<NodeId>(src), exclude, out.row(src),
                   nullptr);
    }
  }
}

void PathEngine::all_shortest(NodeId exclude, DistanceMatrix& out,
                              QueryScratch& qs) const {
  all_rows<false>(qs, exclude, out);
}

void PathEngine::all_widest(NodeId exclude, DistanceMatrix& out,
                            QueryScratch& qs) const {
  all_rows<true>(qs, exclude, out);
}

}  // namespace egoist::graph
