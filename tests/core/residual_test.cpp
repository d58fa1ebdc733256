#include "core/residual.hpp"

#include <gtest/gtest.h>

#include "../graph/residual_reference.hpp"
#include "core/policies.hpp"
#include "graph/shortest_path.hpp"
#include "net/delay_space.hpp"

namespace egoist::core {
namespace {

using egoist::testing::reference_bandwidth_objective;
using egoist::testing::reference_delay_objective;
using egoist::testing::reference_sampled_delay_objective;

TEST(ResidualTest, SelfOutEdgesAreIgnored) {
  // 0 -> 1 -> 2 chain plus 0 -> 2 shortcut. The residual graph for node 0
  // must exclude 0's own out-edges, so 1's distance to 2 stays 5.
  graph::Digraph overlay(3);
  overlay.set_edge(0, 1, 1.0);
  overlay.set_edge(0, 2, 1.0);
  overlay.set_edge(1, 2, 5.0);
  overlay.set_edge(2, 1, 5.0);

  const std::vector<double> direct{0.0, 1.0, 100.0};
  graph::PathEngine engine(overlay);
  engine.prepare_shortest();
  graph::PathEngine::QueryScratch query;
  const auto obj = make_delay_objective(engine, query, 0, direct, std::nullopt,
                                        default_unreachable_penalty(overlay));
  // With wiring {1}: d(0,2) must be 1 + 5 (through residual), never
  // 1 + (1->0->2) which would use 0's own edges.
  const std::vector<NodeId> w{1};
  EXPECT_NEAR(obj.distance_to(w, 2), 6.0, 1e-12);
}

TEST(ResidualTest, UniformPreferenceAveragesTargets) {
  graph::Digraph overlay(4);
  overlay.set_edge(1, 2, 1.0);
  overlay.set_edge(2, 3, 1.0);
  overlay.set_edge(3, 1, 1.0);
  const std::vector<double> direct{0.0, 2.0, 2.0, 2.0};
  graph::PathEngine engine(overlay);
  engine.prepare_shortest();
  graph::PathEngine::QueryScratch query;
  const auto obj = make_delay_objective(engine, query, 0, direct, std::nullopt,
                                        default_unreachable_penalty(overlay));
  // Wiring {1}: d=2, 3, 4 to targets 1,2,3 -> mean 3.
  const std::vector<NodeId> w{1};
  EXPECT_NEAR(obj.cost(w), 3.0, 1e-12);
}

TEST(ResidualTest, ExplicitPreferenceUsed) {
  graph::Digraph overlay(3);
  overlay.set_edge(1, 2, 1.0);
  overlay.set_edge(2, 1, 1.0);
  const std::vector<double> direct{0.0, 1.0, 7.0};
  std::vector<double> pref{0.0, 1.0, 0.0};  // only node 1 matters
  graph::PathEngine engine(overlay);
  engine.prepare_shortest();
  graph::PathEngine::QueryScratch query;
  const auto obj = make_delay_objective(engine, query, 0, direct, pref,
                                        default_unreachable_penalty(overlay));
  const std::vector<NodeId> w1{1};
  const std::vector<NodeId> w2{2};
  EXPECT_NEAR(obj.cost(w1), 1.0, 1e-12);
  EXPECT_NEAR(obj.cost(w2), 8.0, 1e-12);
}

TEST(ResidualTest, InactiveNodesExcludedFromCandidatesAndTargets) {
  graph::Digraph overlay(4);
  overlay.set_edge(1, 2, 1.0);
  overlay.set_edge(2, 1, 1.0);
  overlay.set_active(3, false);
  const std::vector<double> direct{0.0, 1.0, 1.0, 1.0};
  graph::PathEngine engine(overlay);
  engine.prepare_shortest();
  graph::PathEngine::QueryScratch query;
  const auto obj = make_delay_objective(engine, query, 0, direct, std::nullopt,
                                        default_unreachable_penalty(overlay));
  EXPECT_EQ(obj.candidates(), (std::vector<NodeId>{1, 2}));
}

TEST(ResidualTest, InactiveSelfRejected) {
  graph::Digraph overlay(3);
  overlay.set_active(0, false);
  const std::vector<double> direct{0.0, 1.0, 1.0};
  graph::PathEngine engine(overlay);
  graph::PathEngine::QueryScratch query;
  EXPECT_THROW(make_delay_objective(engine, query, 0, direct, std::nullopt,
                                    default_unreachable_penalty(overlay)),
               std::invalid_argument);
}

TEST(ResidualTest, DefaultPenaltyDominatesPathCosts) {
  graph::Digraph overlay(3);
  overlay.set_edge(1, 2, 40.0);
  EXPECT_GT(default_unreachable_penalty(overlay), 40.0 * 100.0);
}

TEST(ResidualBandwidthTest, UsesWidestPathResiduals) {
  // 1 -> 2 with bw 8; 2 -> 1 with bw 2. Self = 0.
  graph::Digraph overlay(3);
  overlay.set_edge(1, 2, 8.0);
  overlay.set_edge(2, 1, 2.0);
  const std::vector<double> direct_bw{0.0, 10.0, 3.0};
  graph::PathEngine engine(overlay);
  engine.prepare_widest();
  graph::PathEngine::QueryScratch query;
  const auto obj = make_bandwidth_objective(engine, query, 0, direct_bw);
  const std::vector<NodeId> w{1};
  // bw(0,1) = 10 direct; bw(0,2) = min(10, 8) = 8 -> score 18.
  EXPECT_NEAR(obj.score(w), 18.0, 1e-12);
}

TEST(ResidualBandwidthTest, SelfEdgesIgnoredInResidual) {
  graph::Digraph overlay(3);
  overlay.set_edge(0, 2, 100.0);  // self's own edge must not help candidates
  overlay.set_edge(1, 0, 50.0);
  const std::vector<double> direct_bw{0.0, 10.0, 1.0};
  graph::PathEngine engine(overlay);
  engine.prepare_widest();
  graph::PathEngine::QueryScratch query;
  const auto obj = make_bandwidth_objective(engine, query, 0, direct_bw);
  const std::vector<NodeId> w{1};
  // 1 can reach 0 (bw 50) but NOT 2, because 0->2 is self's edge.
  EXPECT_NEAR(obj.bandwidth_to(w, 2), 0.0, 1e-12);
}

TEST(SampledObjectiveTest, RestrictsToSample) {
  graph::Digraph overlay(5);
  for (NodeId u = 1; u < 5; ++u) {
    for (NodeId v = 1; v < 5; ++v) {
      if (u != v) overlay.set_edge(u, v, 1.0);
    }
  }
  const std::vector<double> direct{0.0, 1.0, 2.0, 3.0, 4.0};
  const std::vector<NodeId> sample{1, 3};
  graph::PathEngine engine(overlay);
  graph::PathEngine::QueryScratch query;
  const auto obj = make_sampled_delay_objective(
      engine, query, 0, direct, sample, default_unreachable_penalty(overlay));
  EXPECT_EQ(obj.candidates(), sample);
  // Cost over sample targets only: wiring {1} -> d(0,1)=1, d(0,3)=1+1=2.
  const std::vector<NodeId> w{1};
  EXPECT_NEAR(obj.cost(w), (1.0 + 2.0) / 2.0, 1e-12);
}

TEST(SampledObjectiveTest, SampleMayNotContainSelf) {
  graph::Digraph overlay(3);
  const std::vector<double> direct{0.0, 1.0, 1.0};
  graph::PathEngine engine(overlay);
  graph::PathEngine::QueryScratch query;
  EXPECT_THROW(
      make_sampled_delay_objective(engine, query, 0, direct, {0, 1},
                                   default_unreachable_penalty(overlay)),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Engine-backed builders must match the reference objectives (all-pairs on
// a residual Digraph copy) cost-for-cost on the same overlay snapshot.

TEST(EngineBuilderTest, DelayObjectiveMatchesLegacy) {
  graph::Digraph overlay(4);
  overlay.set_edge(0, 1, 1.0);  // self's edge: excluded by both
  overlay.set_edge(1, 2, 2.0);
  overlay.set_edge(2, 3, 1.0);
  overlay.set_edge(3, 1, 4.0);
  const std::vector<double> direct{0.0, 1.0, 9.0, 2.5};
  graph::PathEngine engine(overlay);
  engine.prepare_shortest();
  graph::PathEngine::QueryScratch query;
  const auto reference = reference_delay_objective(overlay, 0, direct);
  const auto hot = make_delay_objective(engine, query, 0, direct, std::nullopt,
                                        default_unreachable_penalty(overlay));
  EXPECT_EQ(hot.candidates(), reference.candidates());
  EXPECT_EQ(hot.targets(), reference.targets());
  for (const std::vector<NodeId>& w :
       {std::vector<NodeId>{1}, {3}, {1, 3}, {1, 2, 3}}) {
    EXPECT_EQ(hot.cost(w), reference.cost(w));
  }
  for (NodeId v : hot.candidates()) {
    for (NodeId j : hot.targets()) {
      EXPECT_EQ(hot.link_value(v, j), reference.link_value(v, j));
    }
  }
}

TEST(EngineBuilderTest, BandwidthObjectiveMatchesLegacy) {
  graph::Digraph overlay(4);
  overlay.set_edge(1, 2, 8.0);
  overlay.set_edge(2, 3, 6.0);
  overlay.set_edge(3, 1, 2.0);
  overlay.set_edge(0, 3, 100.0);  // self's edge: must not help candidates
  const std::vector<double> direct_bw{0.0, 10.0, 3.0, 1.0};
  graph::PathEngine engine(overlay);
  engine.prepare_widest();
  graph::PathEngine::QueryScratch query;
  const auto reference = reference_bandwidth_objective(overlay, 0, direct_bw);
  const auto hot = make_bandwidth_objective(engine, query, 0, direct_bw);
  for (const std::vector<NodeId>& w :
       {std::vector<NodeId>{1}, {2}, {1, 3}, {1, 2, 3}}) {
    EXPECT_EQ(hot.score(w), reference.score(w));
  }
}

TEST(EngineBuilderTest, SampledObjectiveMatchesLegacy) {
  graph::Digraph overlay(6);
  for (NodeId u = 1; u < 6; ++u) {
    overlay.set_edge(u, (u % 5) + 1, 1.0 + u);  // ring 1 -> 2 -> ... -> 5 -> 1
  }
  overlay.set_active(4, false);  // churned-out sampled node
  const std::vector<double> direct{0.0, 1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<NodeId> sample{1, 3, 4};
  graph::PathEngine engine(overlay);
  graph::PathEngine::QueryScratch query;
  const auto reference =
      reference_sampled_delay_objective(overlay, 0, direct, sample);
  const auto hot = make_sampled_delay_objective(
      engine, query, 0, direct, sample, default_unreachable_penalty(overlay));
  EXPECT_EQ(hot.candidates(), reference.candidates());
  for (const std::vector<NodeId>& w : {std::vector<NodeId>{1}, {3}, {1, 3}}) {
    EXPECT_EQ(hot.cost(w), reference.cost(w));
  }
  EXPECT_THROW(
      make_sampled_delay_objective(engine, query, 0, direct, {0, 1},
                                   default_unreachable_penalty(overlay)),
      std::invalid_argument);
}

TEST(EngineBuilderTest, DefaultPenaltyMatchesLegacyUnderChurn) {
  // Regression: a churned node holding the heaviest edge still sets the
  // "M >> n" penalty of the decision graph; the builder must fold
  // unreachable targets with the penalty it is given, exactly like the
  // reference objective.
  graph::Digraph overlay(4);
  overlay.set_edge(1, 2, 2.0);
  overlay.set_edge(2, 3, 1.0);
  overlay.set_edge(3, 1, 50.0);
  overlay.set_active(3, false);
  graph::PathEngine engine(overlay);
  engine.prepare_shortest();
  graph::PathEngine::QueryScratch query;
  const std::vector<double> direct{0.0, 1.0, 9.0, 3.0};
  const auto reference = reference_delay_objective(overlay, 0, direct);
  const auto hot = make_delay_objective(engine, query, 0, direct, std::nullopt,
                                        default_unreachable_penalty(overlay));
  // Node 2 cannot reach node 1 (its only outgoing edge led to churned 3),
  // so wiring {2} pays the penalty on target 1 — it must match exactly.
  const std::vector<NodeId> w{2};
  EXPECT_EQ(hot.cost(w), reference.cost(w));
}

TEST(EngineBuilderTest, InactiveSelfRejected) {
  graph::Digraph overlay(3);
  overlay.set_active(0, false);
  graph::PathEngine engine(overlay);
  graph::PathEngine::QueryScratch query;
  const std::vector<double> direct{0.0, 1.0, 1.0};
  EXPECT_THROW(make_delay_objective(engine, query, 0, direct, std::nullopt,
                                    default_unreachable_penalty(overlay)),
               std::invalid_argument);
  EXPECT_THROW(make_bandwidth_objective(engine, query, 0, direct),
               std::invalid_argument);
}

TEST(ResidualIntegrationTest, BrImprovesOverArbitraryWiring) {
  const std::size_t n = 25;
  const auto delays = net::make_planetlab_like(n, 77);
  graph::Digraph overlay(n);
  util::Rng rng(78);
  for (NodeId u = 0; u < static_cast<NodeId>(n); ++u) {
    std::vector<NodeId> candidates;
    for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
      if (v != u) candidates.push_back(v);
    }
    for (NodeId v : select_k_random(candidates, 3, rng)) {
      overlay.set_edge(u, v, delays.delay(u, v));
    }
  }
  std::vector<double> direct(n);
  for (int v = 1; v < static_cast<int>(n); ++v) {
    direct[static_cast<std::size_t>(v)] = delays.delay(0, v);
  }
  graph::PathEngine engine(overlay);
  engine.prepare_shortest();
  graph::PathEngine::QueryScratch query;
  const auto obj = make_delay_objective(engine, query, 0, direct, std::nullopt,
                                        default_unreachable_penalty(overlay));
  const auto br = best_response(obj, 3);
  // BR must be at least as good as node 0's current (random) wiring.
  std::vector<NodeId> current;
  for (const auto& e : overlay.out_edges(0)) current.push_back(e.to);
  EXPECT_LE(br.cost, obj.cost(current) + 1e-9);
}

}  // namespace
}  // namespace egoist::core
