// graph::paths_to against its references: lane c of every row equals, bit
// for bit, graph::dijkstra (shortest) or graph::widest_paths (widest) from
// targets[c] on the explicitly reversed Digraph, and the column of an
// inactive target stays unreached. The random graphs of random_digraphs.hpp
// carry integer ties, real weights, +inf, NaN and -0.0 weights and 15%
// inactive nodes; lane counts around the vector width exercise the loop
// tails, and a chain and a ring exercise the worst-case round count.
#include "graph/csr_graph.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <string>
#include <utility>
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
using egoist::testing::reversed;
using egoist::testing::Weights;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<Digraph> all_weight_fixtures() {
  return csr_fixtures({Weights::kIntegers, Weights::kReals,
                       Weights::kNonFinite, Weights::kSignedZeros});
}

std::vector<NodeId> every_node(const Digraph& g) {
  std::vector<NodeId> ids(g.node_count());
  for (std::size_t v = 0; v < ids.size(); ++v) ids[v] = static_cast<NodeId>(v);
  return ids;
}

/// The reference column of one lane: the reversed graph's single-source
/// values from `target`, or all unreached for an inactive target.
std::vector<double> reference_lane(const Digraph& r, NodeId target,
                                   bool widest) {
  if (!r.is_active(target)) {
    return std::vector<double>(r.node_count(), widest ? 0.0 : kUnreachable);
  }
  return widest ? widest_paths(r, target).bottleneck : dijkstra(r, target).dist;
}

/// Asserts every lane of `out` equals its reference on the reversed graph,
/// and that the pass stayed within its worst case (one round per hop of
/// the longest shortest path, so at most n rounds).
void expect_lanes_match(const Digraph& g, std::span<const NodeId> targets,
                        bool widest, const DistanceMatrix& out,
                        const PathsToStats& stats, const std::string& label) {
  ASSERT_EQ(out.rows(), g.node_count()) << label;
  ASSERT_EQ(out.cols(), targets.size()) << label;
  ASSERT_LE(stats.rounds, g.node_count()) << label;
  const Digraph r = reversed(g);
  for (std::size_t c = 0; c < targets.size(); ++c) {
    const std::vector<double> reference = reference_lane(r, targets[c], widest);
    for (std::size_t v = 0; v < g.node_count(); ++v) {
      ASSERT_EQ(bits(out(v, c)), bits(reference[v]))
          << label << " lane " << c << " target " << targets[c] << " node "
          << v;
    }
  }
}

void expect_all_nodes_match(bool widest) {
  DistanceMatrix out;
  for (const Digraph& g : all_weight_fixtures()) {
    const std::vector<NodeId> targets = every_node(g);
    const auto stats = paths_to(CsrGraph(g), targets, widest, out);
    expect_lanes_match(g, targets, widest, out, stats,
                       "n=" + std::to_string(g.node_count()));
  }
}

TEST(PathsToTest, LanesMatchDijkstraOnTheReversedGraph) {
  expect_all_nodes_match(false);
}

TEST(PathsToTest, WidestLanesMatchWidestPaths) { expect_all_nodes_match(true); }

TEST(PathsToTest, LaneCountsCoverTheVectorTails) {
  util::Rng rng(0x1A7E5u);
  DistanceMatrix out;
  for (const Weights weights : {Weights::kIntegers, Weights::kReals,
                                Weights::kNonFinite, Weights::kSignedZeros}) {
    const Digraph g = random_digraph(rng, 90, 4, 0.15, weights);
    const CsrGraph csr(g, CsrSides::kIn);
    for (const std::size_t lanes : {0, 1, 3, 7, 64, 65}) {
      // Drawn with replacement: duplicate and inactive targets occur.
      std::vector<NodeId> targets(lanes);
      for (NodeId& t : targets) t = static_cast<NodeId>(rng.uniform_int(0, 89));
      for (const bool widest : {false, true}) {
        const auto stats = paths_to(csr, targets, widest, out);
        expect_lanes_match(g, targets, widest, out, stats,
                           "lanes=" + std::to_string(lanes) +
                               " widest=" + std::to_string(widest));
        if (lanes == 0) {
          EXPECT_EQ(stats.rounds, 0u);
        }
      }
    }
  }
}

TEST(PathsToTest, InactiveTargetAndDeadEdgesReachNothing) {
  // Shortest: +inf and NaN edges reach nothing, an inactive node neither
  // reaches nor is reached, and an inactive target's column stays
  // unreached, its own row included.
  Digraph delay(5);
  delay.set_edge(0, 1, 1.0);
  delay.set_edge(1, 0, 1.0);
  delay.set_edge(2, 1, kInf);
  delay.set_edge(3, 0, std::numeric_limits<double>::quiet_NaN());
  delay.set_edge(4, 1, 2.0);
  delay.set_active(4, false);
  const std::vector<NodeId> targets{0, 4};
  DistanceMatrix out;
  auto stats = paths_to(CsrGraph(delay), targets, false, out);
  const std::vector<double> to_zero{0.0, 1.0, kInf, kInf, kInf};
  for (std::size_t v = 0; v < 5; ++v) {
    EXPECT_EQ(bits(out(v, 0)), bits(to_zero[v])) << v;
    EXPECT_EQ(out(v, 1), kUnreachable) << v;
  }
  expect_lanes_match(delay, targets, false, out, stats, "delay");

  // Widest: a 0-bandwidth edge reaches nothing; the target's own value is
  // +inf and an inactive target's column reads 0.
  Digraph bandwidth(5);
  bandwidth.set_edge(0, 1, 5.0);
  bandwidth.set_edge(1, 0, 5.0);
  bandwidth.set_edge(2, 0, 0.0);
  bandwidth.set_edge(3, 1, 2.0);
  bandwidth.set_edge(4, 0, 7.0);
  bandwidth.set_active(4, false);
  stats = paths_to(CsrGraph(bandwidth), targets, true, out);
  const std::vector<double> widest_to_zero{kInf, 5.0, 0.0, 2.0, 0.0};
  for (std::size_t v = 0; v < 5; ++v) {
    EXPECT_EQ(bits(out(v, 0)), bits(widest_to_zero[v])) << v;
    EXPECT_EQ(bits(out(v, 1)), bits(0.0)) << v;
  }
  expect_lanes_match(bandwidth, targets, true, out, stats, "bandwidth");

  EXPECT_THROW(paths_to(CsrGraph(delay), std::vector<NodeId>{5}, false, out),
               std::out_of_range);
  EXPECT_THROW(paths_to(CsrGraph(delay), std::vector<NodeId>{-1}, true, out),
               std::out_of_range);
}

TEST(PathsToTest, OneMatrixServesGraphsOfAnySize) {
  // The shared matrix goes 60 -> 7 -> 90 rows and flips the fold each
  // time, so a cell the pass failed to rewrite would keep a stale value.
  util::Rng rng(77);
  DistanceMatrix shared;
  bool widest = false;
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {60, 9}, {7, 3}, {90, 64}};
  for (const auto& [n, lanes] : shapes) {
    const Digraph g = random_digraph(rng, n, 3, 0.1, Weights::kIntegers);
    std::vector<NodeId> targets(lanes);
    for (NodeId& t : targets) {
      t = static_cast<NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    }
    const CsrGraph csr(g);
    DistanceMatrix fresh;
    const auto stats = paths_to(csr, targets, widest, shared);
    paths_to(csr, targets, widest, fresh);
    ASSERT_EQ(shared.rows(), n);
    ASSERT_EQ(shared.cols(), lanes);
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t c = 0; c < lanes; ++c) {
        ASSERT_EQ(bits(shared(v, c)), bits(fresh(v, c))) << n << " " << v;
      }
    }
    expect_lanes_match(g, targets, widest, shared, stats,
                       "n=" + std::to_string(n));
    widest = !widest;
  }
}

TEST(PathsToTest, ChainAndRingRunOneRoundPerHop) {
  constexpr std::size_t n = 2000;
  util::Rng rng(2024);
  Digraph chain(n);  // i -> i + 1, real weights
  Digraph ring(n);   // i -> i + 1 mod n, integer weights 1..3 (ties)
  for (std::size_t i = 0; i < n; ++i) {
    const auto u = static_cast<NodeId>(i);
    if (i + 1 < n) chain.set_edge(u, u + 1, rng.uniform(0.1, 100.0));
    ring.set_edge(u, static_cast<NodeId>((i + 1) % n),
                  static_cast<double>(rng.uniform_int(1, 3)));
  }
  const CsrGraph chain_csr(chain, CsrSides::kIn);
  const CsrGraph ring_csr(ring, CsrSides::kIn);
  DistanceMatrix out;
  for (const bool widest : {false, true}) {
    // One target n - 1 hops from the far end: n rounds of one row each, so
    // the work is one row relaxation per edge, not one row scan per round.
    const std::vector<NodeId> end{static_cast<NodeId>(n - 1)};
    auto stats = paths_to(chain_csr, end, widest, out);
    EXPECT_EQ(stats.rounds, n);
    EXPECT_EQ(stats.row_relaxations, n - 1);
    expect_lanes_match(chain, end, widest, out, stats, "chain");
    const std::vector<NodeId> zero{0};
    stats = paths_to(ring_csr, zero, widest, out);
    EXPECT_EQ(stats.rounds, n);
    EXPECT_EQ(stats.row_relaxations, n);
    expect_lanes_match(ring, zero, widest, out, stats, "ring");

    const std::vector<NodeId> spread{0, 7, 1000, 1500, 1999};
    stats = paths_to(chain_csr, spread, widest, out);
    expect_lanes_match(chain, spread, widest, out, stats, "chain, 5 lanes");
    stats = paths_to(ring_csr, spread, widest, out);
    expect_lanes_match(ring, spread, widest, out, stats, "ring, 5 lanes");
  }
}

TEST(PathsToTest, InEdgeGraphsAnswerLikeBothSidesAndOutEdgeGraphsRefuse) {
  DistanceMatrix both_out;
  DistanceMatrix side_out;
  for (const Digraph& g : csr_fixtures()) {
    const CsrGraph both(g);
    const CsrGraph in_only(g, CsrSides::kIn);
    const CsrGraph out_only(g, CsrSides::kOut);
    const std::vector<NodeId> targets = every_node(g);
    for (const bool widest : {false, true}) {
      paths_to(both, targets, widest, both_out);
      paths_to(in_only, targets, widest, side_out);
      for (std::size_t v = 0; v < g.node_count(); ++v) {
        for (std::size_t c = 0; c < targets.size(); ++c) {
          ASSERT_EQ(bits(side_out(v, c)), bits(both_out(v, c)))
              << widest << " " << v << "->" << targets[c];
        }
      }
      EXPECT_THROW(paths_to(out_only, targets, widest, side_out),
                   CsrSideNotBuilt);
    }
  }
  // Rebuilding in place switches the sides: a reused graph drops the side
  // it no longer builds.
  CsrGraph reused(csr_fixtures().back(), CsrSides::kIn);
  reused.rebuild(csr_fixtures().back(), CsrSides::kOut);
  const std::vector<NodeId> zero{0};
  EXPECT_THROW(paths_to(reused, zero, false, side_out), CsrSideNotBuilt);
  reused.rebuild(csr_fixtures().back(), CsrSides::kIn);
  EXPECT_NO_THROW(paths_to(reused, zero, false, side_out));
}

TEST(PathsToTest, StoppedSearchesOnTheReversedGraphAnswerLikeTheLanes) {
  // A CsrSearch on the reversed graph, stopped at dst, answers what lane
  // src of dst's row holds: the pass and the search agree on every pair.
  CsrSearch stopped;
  DistanceMatrix out;
  for (const Digraph& g : all_weight_fixtures()) {
    const CsrGraph in_csr(g, CsrSides::kIn);
    const CsrGraph reversed_csr(reversed(g), CsrSides::kOut);
    const std::vector<NodeId> targets = every_node(g);
    const auto n = static_cast<NodeId>(g.node_count());
    for (const bool widest : {false, true}) {
      paths_to(in_csr, targets, widest, out);
      for (NodeId src = 0; src < n; ++src) {
        for (NodeId dst = 0; dst < n; ++dst) {
          stopped.run(reversed_csr, src, {.widest = widest, .stop_at = dst});
          const double lane = out(static_cast<std::size_t>(dst),
                                  static_cast<std::size_t>(src));
          ASSERT_EQ(bits(stopped.dist(dst)), bits(lane))
              << widest << " " << dst << "->" << src;
          ASSERT_EQ(stopped.reached(dst), widest ? lane > 0.0 : lane < kInf)
              << widest << " " << dst << "->" << src;
        }
      }
    }
  }
}

}  // namespace
}  // namespace egoist::graph
