#include "graph/shortest_path.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace egoist::graph {
namespace {

// Small fixture graph:
//   0 ->1 (1), 0->2 (4), 1->2 (2), 2->3 (1), 1->3 (5)
Digraph diamond() {
  Digraph g(4);
  g.set_edge(0, 1, 1.0);
  g.set_edge(0, 2, 4.0);
  g.set_edge(1, 2, 2.0);
  g.set_edge(2, 3, 1.0);
  g.set_edge(1, 3, 5.0);
  return g;
}

TEST(DijkstraTest, FindsShortestDistances) {
  const auto tree = dijkstra(diamond(), 0);
  EXPECT_DOUBLE_EQ(tree.dist[0], 0.0);
  EXPECT_DOUBLE_EQ(tree.dist[1], 1.0);
  EXPECT_DOUBLE_EQ(tree.dist[2], 3.0);  // via 1
  EXPECT_DOUBLE_EQ(tree.dist[3], 4.0);  // 0-1-2-3
}

TEST(DijkstraTest, ExtractPathFollowsParents) {
  const auto tree = dijkstra(diamond(), 0);
  EXPECT_EQ(extract_path(tree, 0, 3), (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(extract_path(tree, 0, 0), (std::vector<NodeId>{0}));
}

TEST(DijkstraTest, UnreachableIsInfinity) {
  Digraph g(3);
  g.set_edge(0, 1, 1.0);
  const auto tree = dijkstra(g, 0);
  EXPECT_EQ(tree.dist[2], kUnreachable);
  EXPECT_TRUE(extract_path(tree, 0, 2).empty());
}

TEST(DijkstraTest, DirectionMatters) {
  Digraph g(2);
  g.set_edge(0, 1, 1.0);
  const auto from1 = dijkstra(g, 1);
  EXPECT_EQ(from1.dist[0], kUnreachable);
}

TEST(DijkstraTest, InactiveNodesAreSkipped) {
  auto g = diamond();
  g.set_active(1, false);
  const auto tree = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(tree.dist[2], 4.0);  // forced through direct 0->2
  EXPECT_DOUBLE_EQ(tree.dist[3], 5.0);
  EXPECT_EQ(tree.dist[1], kUnreachable);
}

TEST(DijkstraTest, InactiveSourceRejected) {
  auto g = diamond();
  g.set_active(0, false);
  EXPECT_THROW(dijkstra(g, 0), std::invalid_argument);
}

TEST(DijkstraTest, NegativeWeightRejected) {
  Digraph g(2);
  g.set_edge(0, 1, -1.0);
  EXPECT_THROW(dijkstra(g, 0), std::invalid_argument);
}

TEST(DijkstraTest, ZeroWeightEdgesAllowed) {
  Digraph g(3);
  g.set_edge(0, 1, 0.0);
  g.set_edge(1, 2, 0.0);
  const auto tree = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(tree.dist[2], 0.0);
}

TEST(ApspTest, MatchesPerSourceDijkstra) {
  const auto g = diamond();
  const auto all = all_pairs_shortest_paths(g);
  for (NodeId u = 0; u < 4; ++u) {
    const auto tree = dijkstra(g, u);
    for (NodeId v = 0; v < 4; ++v) {
      EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)],
                       tree.dist[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(ApspTest, InactiveRowIsUnreachable) {
  auto g = diamond();
  g.set_active(2, false);
  const auto all = all_pairs_shortest_paths(g);
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_EQ(all[2][static_cast<std::size_t>(v)], kUnreachable);
  }
}

// Property: on random graphs, Dijkstra distances satisfy the triangle
// inequality d(s,v) <= d(s,u) + w(u,v) for every edge (u,v).
class DijkstraRandomGraphTest : public ::testing::TestWithParam<int> {};

TEST_P(DijkstraRandomGraphTest, RelaxedEdgesSatisfyTriangleInequality) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = 30;
  Digraph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (int j = 0; j < 4; ++j) {
      const NodeId v = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      if (v != u) g.set_edge(u, v, rng.uniform(0.1, 10.0));
    }
  }
  const auto tree = dijkstra(g, 0);
  for (NodeId u = 0; u < n; ++u) {
    if (tree.dist[static_cast<std::size_t>(u)] == kUnreachable) continue;
    for (const Edge& e : g.out_edges(u)) {
      EXPECT_LE(tree.dist[static_cast<std::size_t>(e.to)],
                tree.dist[static_cast<std::size_t>(u)] + e.weight + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraRandomGraphTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace egoist::graph
