// graph::CsrSearch against its references: graph::dijkstra and
// graph::widest_paths on the same Digraph, over the random graphs of
// random_digraphs.hpp (integer ties, zero-weight, +inf and NaN edges,
// inactive nodes). Values are compared bit for bit and parent arrays
// exactly: the search settles nodes in the references' (value, id) pop
// order, which is what lets a stopped run answer exactly like the full row.
// paths_to_test.cpp checks paths to a node (the reversed graph).
#include "graph/csr_graph.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "graph/shortest_path.hpp"
#include "graph/widest_path.hpp"
#include "random_digraphs.hpp"
#include "util/rng.hpp"

namespace egoist::graph {
namespace {

using egoist::testing::bits;
using egoist::testing::csr_fixtures;
using egoist::testing::random_digraph;
using egoist::testing::Weights;

/// The node after src on the reference tree path to v; -1 at src and at
/// unreached nodes.
NodeId reference_first_hop(const std::vector<NodeId>& parent, NodeId src,
                           NodeId v) {
  if (v == src || parent[static_cast<std::size_t>(v)] == -1) return -1;
  while (parent[static_cast<std::size_t>(v)] != src) {
    v = parent[static_cast<std::size_t>(v)];
  }
  return v;
}

/// Asserts a finished run equals a reference tree (values, parents, first
/// hops).
void expect_equals_reference(const CsrSearch& search, NodeId src,
                             const std::vector<double>& value,
                             const std::vector<NodeId>& parent,
                             const std::string& label) {
  for (std::size_t j = 0; j < value.size(); ++j) {
    const auto v = static_cast<NodeId>(j);
    ASSERT_EQ(bits(search.dist(v)), bits(value[j])) << label << " node " << j;
    ASSERT_EQ(search.parent(v), parent[j]) << label << " node " << j;
    ASSERT_EQ(search.first_hop(v), reference_first_hop(parent, src, v))
        << label << " node " << j;
  }
}

TEST(CsrSearchTest, FullRunsMatchDijkstraBitsAndParents) {
  CsrSearch search;
  for (const Digraph& g : csr_fixtures()) {
    const CsrGraph csr(g);
    for (NodeId src = 0; src < static_cast<NodeId>(g.node_count()); ++src) {
      if (!g.is_active(src)) continue;
      search.run(csr, src);
      const auto tree = dijkstra(g, src);
      expect_equals_reference(search, src, tree.dist, tree.parent,
                              "n=" + std::to_string(g.node_count()) +
                                  " src=" + std::to_string(src));
    }
  }
}

TEST(CsrSearchTest, WidestRunsMatchWidestPaths) {
  CsrSearch search;
  for (const Digraph& g : csr_fixtures()) {
    const CsrGraph csr(g);
    for (NodeId src = 0; src < static_cast<NodeId>(g.node_count()); ++src) {
      if (!g.is_active(src)) continue;
      search.run(csr, src, {.widest = true});
      const auto tree = widest_paths(g, src);
      expect_equals_reference(search, src, tree.bottleneck, tree.parent,
                              "widest n=" + std::to_string(g.node_count()) +
                                  " src=" + std::to_string(src));
    }
  }
}

TEST(CsrSearchTest, StoppedRunsAnswerLikeTheFullRun) {
  CsrSearch full;
  CsrSearch stopped;
  std::size_t fewer = 0;
  for (const Digraph& g : csr_fixtures()) {
    const CsrGraph csr(g);
    const auto n = static_cast<NodeId>(g.node_count());
    for (const bool widest : {false, true}) {
      for (NodeId src = 0; src < n; ++src) {
        if (!g.is_active(src)) continue;
        full.run(csr, src, {.widest = widest});
        for (NodeId dst = 0; dst < n; ++dst) {
          stopped.run(csr, src, {.widest = widest, .stop_at = dst});
          ASSERT_EQ(stopped.reached(dst), full.reached(dst))
              << src << "->" << dst;
          ASSERT_EQ(bits(stopped.dist(dst)), bits(full.dist(dst)))
              << src << "->" << dst;
          ASSERT_EQ(stopped.first_hop(dst), full.first_hop(dst))
              << src << "->" << dst;
          ASSERT_EQ(stopped.path_to(dst), full.path_to(dst))
              << src << "->" << dst;
          ASSERT_LE(stopped.settled_count(), full.settled_count());
          if (stopped.settled_count() < full.settled_count()) ++fewer;
        }
      }
    }
  }
  EXPECT_GT(fewer, 0u);  // the stop does cut searches short
}

TEST(CsrSearchTest, OneSidedGraphsAnswerLikeBothSidesAndRefuseTheOther) {
  CsrSearch both_search;
  CsrSearch side_search;
  for (const Digraph& g : csr_fixtures()) {
    const CsrGraph both(g);
    const CsrGraph out_only(g, CsrSides::kOut);
    const CsrGraph in_only(g, CsrSides::kIn);
    ASSERT_TRUE(out_only.has_out_edges() && !out_only.has_in_edges());
    ASSERT_TRUE(in_only.has_in_edges() && !in_only.has_out_edges());
    ASSERT_EQ(out_only.edge_count(), both.edge_count());
    ASSERT_EQ(in_only.edge_count(), both.edge_count());
    const auto n = static_cast<NodeId>(g.node_count());
    for (NodeId src = 0; src < n; ++src) {
      both_search.run(both, src);
      side_search.run(out_only, src);
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_EQ(bits(side_search.dist(v)), bits(both_search.dist(v)))
            << src << "->" << v;
        ASSERT_EQ(side_search.parent(v), both_search.parent(v));
      }
      EXPECT_THROW(side_search.run(in_only, src), CsrSideNotBuilt);
      EXPECT_THROW(side_search.run(in_only, src, {.widest = true}),
                   CsrSideNotBuilt);
    }
  }
  // Rebuilding in place switches the sides: a reused graph drops the side
  // it no longer builds.
  CsrGraph reused(csr_fixtures().back(), CsrSides::kOut);
  reused.rebuild(csr_fixtures().back(), CsrSides::kIn);
  EXPECT_THROW(side_search.run(reused, 0), CsrSideNotBuilt);
  reused.rebuild(csr_fixtures().back(), CsrSides::kOut);
  EXPECT_NO_THROW(side_search.run(reused, 0));
}

TEST(CsrSearchTest, UnreachableTargetAnswersUnreachable) {
  Digraph g(5);
  g.set_edge(0, 1, 1.0);
  g.set_edge(1, 0, 1.0);
  g.set_edge(1, 2, std::numeric_limits<double>::infinity());
  g.set_edge(0, 3, std::numeric_limits<double>::quiet_NaN());
  g.set_edge(1, 4, 2.0);
  g.set_active(4, false);
  const CsrGraph csr(g);
  CsrSearch search;
  for (const NodeId dst : {2, 3, 4}) {
    search.run(csr, 0, {.stop_at = dst});
    EXPECT_FALSE(search.reached(dst)) << dst;
    EXPECT_EQ(search.dist(dst), kUnreachable) << dst;
    EXPECT_EQ(search.parent(dst), -1) << dst;
    EXPECT_EQ(search.first_hop(dst), -1) << dst;
    EXPECT_TRUE(search.path_to(dst).empty()) << dst;
  }
  search.run(csr, 0, {.widest = true, .stop_at = 4});
  EXPECT_FALSE(search.reached(4));
  EXPECT_EQ(search.dist(4), 0.0);

  // The source's own entry, and an inactive source that reaches nothing.
  search.run(csr, 0, {.stop_at = 0});
  EXPECT_EQ(search.dist(0), 0.0);
  EXPECT_EQ(search.path_to(0), std::vector<NodeId>{0});
  EXPECT_EQ(search.first_hop(0), -1);
  EXPECT_EQ(search.settled_count(), 1u);
  search.run(csr, 4);
  EXPECT_FALSE(search.reached(4));
  EXPECT_FALSE(search.reached(0));
  EXPECT_THROW(search.run(csr, 5), std::out_of_range);
  EXPECT_THROW(search.run(csr, 0, {.stop_at = 5}), std::out_of_range);
}

TEST(CsrSearchTest, OneScratchServesGraphsOfAnySize) {
  util::Rng rng(77);
  std::vector<Digraph> graphs;
  for (const std::size_t n : {60, 7, 90, 7, 60}) {
    graphs.push_back(random_digraph(rng, n, 3, 0.1, Weights::kIntegers));
  }
  CsrSearch shared;
  for (const Digraph& g : graphs) {
    const CsrGraph csr(g);
    const auto n = static_cast<NodeId>(g.node_count());
    for (NodeId src = 0; src < n; ++src) {
      CsrSearch fresh;
      fresh.run(csr, src);
      shared.run(csr, src);
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_EQ(shared.reached(v), fresh.reached(v))
            << n << " " << src << "->" << v;
        ASSERT_EQ(bits(shared.dist(v)), bits(fresh.dist(v)));
        ASSERT_EQ(shared.parent(v), fresh.parent(v));
        ASSERT_EQ(shared.first_hop(v), fresh.first_hop(v));
      }
      // Ids past this graph's size are rejected, even where a larger
      // graph left slots behind.
      EXPECT_THROW((void)shared.dist(n), std::out_of_range);
    }
  }
}

}  // namespace
}  // namespace egoist::graph
