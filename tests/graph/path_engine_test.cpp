#include "graph/path_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <thread>
#include <vector>

#include "graph/shortest_path.hpp"
#include "graph/widest_path.hpp"
#include "residual_reference.hpp"
#include "util/rng.hpp"

namespace egoist::graph {
namespace {

// ---------------------------------------------------------------------------
// DistanceMatrix

TEST(DistanceMatrixTest, FlatRowMajorLayout) {
  DistanceMatrix m(2, 3, 7.0);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 7.0);
  m(1, 2) = 42.0;
  EXPECT_DOUBLE_EQ(m.row(1)[2], 42.0);
  EXPECT_DOUBLE_EQ(m.row(0)[2], 7.0);
}

TEST(DistanceMatrixTest, FromNestedCopiesAndValidates) {
  const auto m = DistanceMatrix::from_nested({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_THROW(DistanceMatrix::from_nested({{1.0, 2.0}, {3.0}}),
               std::invalid_argument);
}

TEST(DistanceMatrixTest, ResetReshapesAndRefills) {
  DistanceMatrix m(2, 2, 1.0);
  m.reset(3, 3, kUnreachable);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m(2, 2), kUnreachable);
}

// ---------------------------------------------------------------------------
// CsrGraph

TEST(CsrGraphTest, SnapshotsEdgesAndActivity) {
  Digraph g(4);
  g.set_edge(0, 1, 1.5);
  g.set_edge(0, 2, 2.5);
  g.set_edge(1, 2, 3.5);
  g.set_active(3, false);
  g.set_edge(2, 3, 9.0);  // target inactive: dropped from the snapshot
  CsrGraph csr(g);
  EXPECT_EQ(csr.node_count(), 4u);
  EXPECT_EQ(csr.edge_count(), 3u);
  EXPECT_TRUE(csr.is_active(0));
  EXPECT_FALSE(csr.is_active(3));
  EXPECT_EQ(csr.out_targets(0).size(), 2u);
  EXPECT_EQ(csr.out_targets(2).size(), 0u);
  EXPECT_EQ(csr.active_nodes(), (std::vector<NodeId>{0, 1, 2}));
}

TEST(CsrGraphTest, InactiveSourceEdgesDropped) {
  Digraph g(3);
  g.set_edge(0, 1, 1.0);
  g.set_active(0, false);
  CsrGraph csr(g);
  EXPECT_EQ(csr.edge_count(), 0u);
  EXPECT_TRUE(csr.out_targets(0).empty());
}

TEST(CsrGraphTest, ValidationHoistedToBuild) {
  Digraph g(2);
  g.set_edge(0, 1, -1.0);
  CsrGraph csr;
  EXPECT_THROW(csr.rebuild(g), std::invalid_argument);
}

TEST(CsrGraphTest, RebuildReflectsNewSnapshot) {
  Digraph g(3);
  g.set_edge(0, 1, 1.0);
  CsrGraph csr(g);
  EXPECT_EQ(csr.edge_count(), 1u);
  g.set_edge(1, 2, 2.0);
  g.set_active(0, false);
  csr.rebuild(g);
  EXPECT_EQ(csr.edge_count(), 1u);  // 0's edge dropped, 1's added
  EXPECT_EQ(csr.out_targets(1)[0], 2);
}

// ---------------------------------------------------------------------------
// PathEngine vs. graph::all_pairs_* / dijkstra on residual copies

using egoist::testing::residual_copy;

Digraph random_overlay(util::Rng& rng, std::size_t n, std::size_t out_degree,
                       double inactive_fraction) {
  Digraph g(n);
  for (std::size_t u = 0; u < n; ++u) {
    if (rng.chance(inactive_fraction)) g.set_active(static_cast<NodeId>(u), false);
  }
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t d = 0; d < out_degree; ++d) {
      const auto v = static_cast<NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      if (v == static_cast<NodeId>(u)) continue;
      g.set_edge(static_cast<NodeId>(u), v, rng.uniform(0.1, 100.0));
    }
  }
  return g;
}

TEST(PathEngineTest, ShortestMatchesDijkstraOnHandBuiltGraph) {
  Digraph g(5);
  g.set_edge(0, 1, 2.0);
  g.set_edge(1, 2, 3.0);
  g.set_edge(0, 2, 10.0);
  g.set_edge(2, 3, 1.0);
  // node 4 is unreachable
  PathEngine engine(g);
  PathEngine::QueryScratch scratch;
  std::vector<double> row(5);
  engine.shortest_from(0, kNoExclude, row, scratch);
  const auto reference = dijkstra(g, 0).dist;
  for (std::size_t j = 0; j < 5; ++j) EXPECT_EQ(row[j], reference[j]) << j;
}

TEST(PathEngineTest, ExclusionMatchesResidualCopy) {
  // 0 -> 1 -> 2 chain plus 0 -> 2 shortcut; excluding 0 removes both of
  // 0's edges but keeps 1 -> 2 and 2 -> 0 intact.
  Digraph g(3);
  g.set_edge(0, 1, 1.0);
  g.set_edge(0, 2, 1.0);
  g.set_edge(1, 2, 5.0);
  g.set_edge(2, 0, 4.0);
  PathEngine engine(g);
  PathEngine::QueryScratch scratch;
  std::vector<double> row(3);
  engine.shortest_from(1, 0, row, scratch);
  const auto reference = dijkstra(residual_copy(g, 0), 1).dist;
  for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(row[j], reference[j]) << j;
  // Paths *through* the excluded node still work: 1 -> 2 -> 0.
  EXPECT_DOUBLE_EQ(row[0], 9.0);
}

TEST(PathEngineTest, InactiveSourceRowStaysUnreachable) {
  Digraph g(3);
  g.set_edge(0, 1, 1.0);
  g.set_active(2, false);
  PathEngine engine(g);
  PathEngine::QueryScratch scratch;
  std::vector<double> row(3, 0.0);
  engine.shortest_from(2, kNoExclude, row, scratch);
  for (double d : row) EXPECT_EQ(d, kUnreachable);
  engine.widest_from(2, kNoExclude, row, scratch);
  for (double d : row) EXPECT_EQ(d, 0.0);
}

TEST(PathEngineTest, WidestMatchesReferenceOnHandBuiltGraph) {
  Digraph g(4);
  g.set_edge(0, 1, 10.0);
  g.set_edge(1, 2, 8.0);
  g.set_edge(0, 2, 5.0);
  g.set_edge(2, 3, 12.0);
  PathEngine engine(g);
  PathEngine::QueryScratch scratch;
  std::vector<double> row(4);
  engine.widest_from(0, kNoExclude, row, scratch);
  const auto reference = widest_paths(g, 0).bottleneck;
  for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(row[j], reference[j]) << j;
  EXPECT_EQ(row[0], std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(row[2], 8.0);
}

TEST(PathEngineTest, RowSizeValidated) {
  Digraph g(3);
  PathEngine engine(g);
  PathEngine::QueryScratch scratch;
  std::vector<double> wrong(2);
  EXPECT_THROW(engine.shortest_from(0, kNoExclude, wrong, scratch),
               std::invalid_argument);
}

/// Randomized equivalence: across random graphs with churned-out nodes,
/// every residual view of the engine must be bit-identical to all-pairs on
/// a residual copy (the bar every BR evaluation relies on).
TEST(PathEngineEquivalenceTest, RandomGraphsAllExclusionsBitIdentical) {
  util::Rng rng(20260729);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 6 + static_cast<std::size_t>(rng.uniform_int(0, 18));
    const auto g = random_overlay(rng, n, 3, trial % 3 == 0 ? 0.25 : 0.0);
    PathEngine engine(g);
    engine.prepare_shortest();
    engine.prepare_widest();
    PathEngine::QueryScratch scratch;
    DistanceMatrix dist;
    DistanceMatrix bw;
    for (NodeId exclude = -1; exclude < static_cast<NodeId>(n); ++exclude) {
      const auto residual =
          exclude == kNoExclude ? g : residual_copy(g, exclude);
      const auto ref_dist = all_pairs_shortest_paths(residual);
      const auto ref_bw = all_pairs_widest_paths(residual);
      engine.all_shortest(exclude, dist, scratch);
      engine.all_widest(exclude, bw, scratch);
      ASSERT_EQ(dist.rows(), n);
      for (std::size_t u = 0; u < n; ++u) {
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(dist(u, j), ref_dist[u][j])
              << "trial " << trial << " exclude " << exclude << " (" << u
              << " -> " << j << ")";
          ASSERT_EQ(bw(u, j), ref_bw[u][j])
              << "trial " << trial << " exclude " << exclude << " (" << u
              << " -> " << j << ")";
        }
      }
    }
  }
}

/// Randomized incremental-update equivalence: after each single-row
/// mutation (the sequential-epoch pattern: one node re-announces its
/// links), the patched base trees must answer every residual query
/// bit-identically to a from-scratch computation on the new graph.
TEST(PathEngineEquivalenceTest, IncrementalRowUpdatesStayBitIdentical) {
  util::Rng rng(0xE601u);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t n = 10 + static_cast<std::size_t>(rng.uniform_int(0, 10));
    auto g = random_overlay(rng, n, 3, trial % 2 == 0 ? 0.2 : 0.0);
    PathEngine engine(g);
    engine.prepare_shortest();  // the shared base trees the updates patch
    engine.prepare_widest();
    PathEngine::QueryScratch scratch;
    DistanceMatrix dist;
    DistanceMatrix bw;
    for (int step = 0; step < 12; ++step) {
      // Mutate one node's out-edge row: re-price, drop, and add links.
      const auto u = static_cast<NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      g.clear_out_edges(u);
      const auto degree = static_cast<std::size_t>(rng.uniform_int(0, 4));
      for (std::size_t d = 0; d < degree; ++d) {
        const auto v = static_cast<NodeId>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        if (v != u) g.set_edge(u, v, rng.uniform(0.1, 50.0));
      }
      engine.update_out_edges(u, g);
      // Every residual view must match the reference on the NEW graph.
      for (NodeId exclude = -1; exclude < static_cast<NodeId>(n); ++exclude) {
        const auto residual =
            exclude == kNoExclude ? g : residual_copy(g, exclude);
        const auto ref_dist = all_pairs_shortest_paths(residual);
        const auto ref_bw = all_pairs_widest_paths(residual);
        engine.all_shortest(exclude, dist, scratch);
        engine.all_widest(exclude, bw, scratch);
        for (std::size_t a = 0; a < n; ++a) {
          for (std::size_t b = 0; b < n; ++b) {
            ASSERT_EQ(dist(a, b), ref_dist[a][b])
                << "trial " << trial << " step " << step << " exclude "
                << exclude << " (" << a << " -> " << b << ")";
            ASSERT_EQ(bw(a, b), ref_bw[a][b])
                << "trial " << trial << " step " << step << " exclude "
                << exclude << " (" << a << " -> " << b << ")";
          }
        }
      }
    }
  }
}

TEST(PathEngineTest, UpdateWithActivityChangeFallsBackToRebuild) {
  util::Rng rng(3);
  auto g = random_overlay(rng, 12, 3, 0.0);
  PathEngine engine(g);
  engine.prepare_shortest();
  g.set_active(4, false);  // membership change voids the one-row contract
  engine.update_out_edges(0, g);
  ASSERT_FALSE(engine.shortest_prepared());
  engine.prepare_shortest();
  PathEngine::QueryScratch scratch;
  DistanceMatrix dist;
  engine.all_shortest(kNoExclude, dist, scratch);
  const auto ref = all_pairs_shortest_paths(g);
  for (std::size_t a = 0; a < 12; ++a) {
    for (std::size_t b = 0; b < 12; ++b) {
      ASSERT_EQ(dist(a, b), ref[a][b]) << a << " -> " << b;
    }
  }
}

/// The invalidation report consumed by the incremental dirty-set epochs:
/// after a successful one-row update, every source absent from
/// last_update_invalidated() must have bit-identical base rows in both
/// semirings — the list is allowed to be conservative (escape-relaxation
/// writes count as changed), never to miss a changed row.
TEST(PathEngineTest, UpdateReportsInvalidatedSourceRows) {
  util::Rng rng(0x11BAu);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t n = 10 + static_cast<std::size_t>(rng.uniform_int(0, 8));
    auto g = random_overlay(rng, n, 3, 0.0);
    PathEngine engine(g);
    PathEngine::QueryScratch scratch;
    DistanceMatrix before_dist, before_bw, after_dist, after_bw;
    for (int step = 0; step < 8; ++step) {
      engine.prepare_shortest();
      engine.prepare_widest();
      engine.all_shortest(kNoExclude, before_dist, scratch);
      engine.all_widest(kNoExclude, before_bw, scratch);
      const auto u = static_cast<NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      g.clear_out_edges(u);
      const auto degree = static_cast<std::size_t>(rng.uniform_int(0, 4));
      for (std::size_t d = 0; d < degree; ++d) {
        const auto v = static_cast<NodeId>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        if (v != u) g.set_edge(u, v, rng.uniform(0.1, 50.0));
      }
      engine.update_out_edges(u, g);
      ASSERT_FALSE(engine.last_update_rebuilt())
          << "trial " << trial << " step " << step;
      const auto invalidated = engine.last_update_invalidated();
      // Ascending and deduplicated: consumers index per-source caches.
      for (std::size_t i = 1; i < invalidated.size(); ++i) {
        ASSERT_LT(invalidated[i - 1], invalidated[i]);
      }
      engine.all_shortest(kNoExclude, after_dist, scratch);
      engine.all_widest(kNoExclude, after_bw, scratch);
      for (std::size_t src = 0; src < n; ++src) {
        const bool listed =
            std::find(invalidated.begin(), invalidated.end(),
                      static_cast<NodeId>(src)) != invalidated.end();
        if (listed) continue;
        for (std::size_t b = 0; b < n; ++b) {
          ASSERT_EQ(before_dist(src, b), after_dist(src, b))
              << "unlisted source " << src << " changed (shortest), trial "
              << trial << " step " << step;
          ASSERT_EQ(before_bw(src, b), after_bw(src, b))
              << "unlisted source " << src << " changed (widest), trial "
              << trial << " step " << step;
        }
      }
    }
  }
}

TEST(PathEngineTest, NoOpUpdateInvalidatesNothing) {
  util::Rng rng(21);
  auto g = random_overlay(rng, 12, 3, 0.0);
  PathEngine engine(g);
  engine.prepare_shortest();
  engine.prepare_widest();
  engine.update_out_edges(3, g);  // row unchanged: announce refresh
  EXPECT_FALSE(engine.last_update_rebuilt());
  EXPECT_TRUE(engine.last_update_invalidated().empty());
}

TEST(PathEngineTest, RebuildAndFallbackReportFullRefresh) {
  util::Rng rng(22);
  auto g = random_overlay(rng, 12, 3, 0.0);
  PathEngine engine(g);
  // Construction is a rebuild: every cached row is void.
  EXPECT_TRUE(engine.last_update_rebuilt());
  engine.prepare_shortest();
  g.set_edge(0, 5, 1.0);
  engine.update_out_edges(0, g);
  EXPECT_FALSE(engine.last_update_rebuilt());
  g.set_active(4, false);  // voids the one-row contract
  engine.update_out_edges(0, g);
  EXPECT_TRUE(engine.last_update_rebuilt());
  EXPECT_TRUE(engine.last_update_invalidated().empty());
  g.set_active(4, true);
  engine.rebuild(g);
  EXPECT_TRUE(engine.last_update_rebuilt());
}

/// Const concurrent queries against a prepared engine: every worker owns a
/// QueryScratch and fans out over sources; rows must be bit-identical to
/// a single-threaded all-pairs query on a second engine.
TEST(PathEngineConstQueryTest, ConcurrentScratchQueriesMatchSequential) {
  util::Rng rng(31);
  const auto g = random_overlay(rng, 30, 4, 0.1);
  const std::size_t n = 30;

  PathEngine reference(g);
  reference.prepare_shortest();
  PathEngine::QueryScratch reference_scratch;
  DistanceMatrix want;
  reference.all_shortest(5, want, reference_scratch);

  PathEngine engine(g);
  engine.prepare_shortest();
  ASSERT_TRUE(engine.shortest_prepared());
  const PathEngine& const_engine = engine;

  DistanceMatrix got(n, n, kUnreachable);
  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      PathEngine::QueryScratch scratch;
      for (std::size_t src = t; src < n; src += kThreads) {
        const_engine.shortest_from(static_cast<NodeId>(src), 5, got.row(src),
                                   scratch);
      }
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(got(u, j), want(u, j)) << u << " -> " << j;
    }
  }
}

/// Without prepared base trees the const overloads fall back to a direct
/// SSSP — same bits, no mutation of the engine.
TEST(PathEngineConstQueryTest, UnpreparedConstQueryRunsDirectSssp) {
  util::Rng rng(32);
  const auto g = random_overlay(rng, 20, 3, 0.0);
  PathEngine engine(g);
  ASSERT_FALSE(engine.shortest_prepared());
  const PathEngine& const_engine = engine;
  PathEngine::QueryScratch scratch;

  std::vector<double> row(20);
  const_engine.shortest_from(3, 7, row, scratch);
  EXPECT_FALSE(engine.shortest_prepared());  // still untouched
  const auto reference = dijkstra(residual_copy(g, 7), 3).dist;
  for (std::size_t j = 0; j < 20; ++j) EXPECT_EQ(row[j], reference[j]) << j;

  const_engine.widest_from(3, 7, row, scratch);
  const auto ref_bw = widest_paths(residual_copy(g, 7), 3).bottleneck;
  for (std::size_t j = 0; j < 20; ++j) EXPECT_EQ(row[j], ref_bw[j]) << j;
}

/// One QueryScratch survives snapshot rebuilds and engine swaps: the
/// epoch-stamped marks can never produce a false descendant match.
TEST(PathEngineConstQueryTest, ScratchIsReusableAcrossSnapshotsAndEngines) {
  util::Rng rng(33);
  PathEngine::QueryScratch scratch;
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t n = 8 + static_cast<std::size_t>(rng.uniform_int(0, 12));
    const auto g = random_overlay(rng, n, 3, 0.1);
    PathEngine engine(g);
    engine.prepare_shortest();
    engine.prepare_widest();
    PathEngine fresh(g);
    fresh.prepare_shortest();
    fresh.prepare_widest();
    PathEngine::QueryScratch fresh_scratch;
    DistanceMatrix want_d, want_b;
    fresh.all_shortest(2, want_d, fresh_scratch);
    fresh.all_widest(2, want_b, fresh_scratch);
    DistanceMatrix got_d, got_b;
    engine.all_shortest(2, got_d, scratch);
    engine.all_widest(2, got_b, scratch);
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(got_d(u, j), want_d(u, j)) << trial << ": " << u << "," << j;
        ASSERT_EQ(got_b(u, j), want_b(u, j)) << trial << ": " << u << "," << j;
      }
    }
  }
}

TEST(PathEngineTest, RebuildTracksGraphMutations) {
  Digraph g(3);
  g.set_edge(0, 1, 1.0);
  g.set_edge(1, 2, 1.0);
  PathEngine engine(g);
  PathEngine::QueryScratch scratch;
  std::vector<double> row(3);
  engine.shortest_from(0, kNoExclude, row, scratch);
  EXPECT_DOUBLE_EQ(row[2], 2.0);
  g.set_edge(0, 2, 0.5);
  engine.rebuild(g);
  engine.shortest_from(0, kNoExclude, row, scratch);
  EXPECT_DOUBLE_EQ(row[2], 0.5);
}

}  // namespace
}  // namespace egoist::graph
