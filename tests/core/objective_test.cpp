#include "core/objective.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/policies.hpp"
#include "graph/shortest_path.hpp"
#include "util/rng.hpp"

namespace egoist::core {
namespace {

// Hand-built scenario: self = 0, others {1, 2, 3}.
// direct costs: 0->1 = 1, 0->2 = 10, 0->3 = 4.
// residual distances (rows = candidate, cols = destination):
//   1 -> 2: 2, 1 -> 3: 7
//   2 -> 1: 2, 2 -> 3: 1
//   3 -> 1: 6, 3 -> 2: 1
DelayObjective make_fixture(double penalty = 1000.0) {
  const double inf = graph::kUnreachable;
  std::vector<std::vector<double>> resid{
      {0, inf, inf, inf},
      {inf, 0, 2, 7},
      {inf, 2, 0, 1},
      {inf, 6, 1, 0},
  };
  return DelayObjective(0, {1, 2, 3}, {0, 1, 10, 4}, resid,
                        {0, 1.0 / 3, 1.0 / 3, 1.0 / 3}, {1, 2, 3}, penalty);
}

TEST(DelayObjectiveTest, SingleNeighborCost) {
  const auto obj = make_fixture();
  // Wiring {1}: d(0,1)=1, d(0,2)=1+2=3, d(0,3)=1+7=8 -> mean = 4.
  const std::vector<NodeId> w{1};
  EXPECT_NEAR(obj.cost(w), (1.0 + 3.0 + 8.0) / 3.0, 1e-12);
}

TEST(DelayObjectiveTest, TwoNeighborsTakeMinimumPerTarget) {
  const auto obj = make_fixture();
  // Wiring {1,3}: d(0,1)=1, d(0,2)=min(1+2, 4+1)=3, d(0,3)=min(1+7, 4)=4.
  const std::vector<NodeId> w{1, 3};
  EXPECT_NEAR(obj.cost(w), (1.0 + 3.0 + 4.0) / 3.0, 1e-12);
}

TEST(DelayObjectiveTest, DirectLinkToTargetCounts) {
  const auto obj = make_fixture();
  const std::vector<NodeId> w{2};
  // d(0,2) = direct 10 (not residual), d(0,1) = 10+2, d(0,3) = 10+1.
  EXPECT_NEAR(obj.cost(w), (12.0 + 10.0 + 11.0) / 3.0, 1e-12);
}

TEST(DelayObjectiveTest, EmptyWiringPaysPenaltyEverywhere) {
  const auto obj = make_fixture(500.0);
  EXPECT_NEAR(obj.cost(std::vector<NodeId>{}), 500.0, 1e-12);
}

TEST(DelayObjectiveTest, DistanceToReportsUnreachable) {
  const double inf = graph::kUnreachable;
  std::vector<std::vector<double>> resid{
      {0, inf, inf}, {inf, 0, inf}, {inf, inf, 0}};
  DelayObjective obj(0, {1, 2}, {0, 1, 1}, resid, {0, 0.5, 0.5}, {1, 2}, 99.0);
  const std::vector<NodeId> w{1};
  EXPECT_DOUBLE_EQ(obj.distance_to(w, 1), 1.0);
  EXPECT_EQ(obj.distance_to(w, 2), inf);
  EXPECT_NEAR(obj.cost(w), 0.5 * 1.0 + 0.5 * 99.0, 1e-12);
}

TEST(DelayObjectiveTest, PreferenceSkewsCost) {
  const double inf = graph::kUnreachable;
  std::vector<std::vector<double>> resid{
      {0, inf, inf}, {inf, 0, 5}, {inf, 5, 0}};
  // Nearly all preference on node 2.
  DelayObjective obj(0, {1, 2}, {0, 1, 10}, resid, {0, 0.01, 0.99}, {1, 2}, 1e6);
  const std::vector<NodeId> via1{1};  // d(0,2) = 6
  const std::vector<NodeId> via2{2};  // d(0,2) = 10 direct
  // via1: 0.01*1 + 0.99*6 = 5.95; via2: 0.01*15 + 0.99*10 = 10.05.
  EXPECT_LT(obj.cost(via1), obj.cost(via2));
}

TEST(DelayObjectiveTest, ValidationErrors) {
  const double inf = graph::kUnreachable;
  std::vector<std::vector<double>> resid{{0, inf}, {inf, 0}};
  EXPECT_THROW(DelayObjective(0, {0}, {0, 1}, resid, {0, 1}, {1}, 1.0),
               std::invalid_argument);  // self as candidate
  EXPECT_THROW(DelayObjective(0, {1}, {0}, resid, {0, 1}, {1}, 1.0),
               std::invalid_argument);  // direct size
  EXPECT_THROW(DelayObjective(0, {1}, {0, 1}, resid, {0}, {1}, 1.0),
               std::invalid_argument);  // pref size
  EXPECT_THROW(DelayObjective(0, {1}, {0, 1}, resid, {0, 1}, {1}, -1.0),
               std::invalid_argument);  // negative penalty
  EXPECT_THROW(DelayObjective(0, {5}, {0, 1}, resid, {0, 1}, {1}, 1.0),
               std::out_of_range);  // candidate range
}

TEST(DelayObjectiveTest, UnmeasuredDirectLegClampsToUnreachable) {
  // Regression: an unmeasured direct cost (kUnreachable) combined with a
  // finite residual distance must clamp to kUnreachable — never a sum that
  // escapes the sentinel checks in fold()/distance_to() and corrupts the
  // min-fold with a garbage "reachable" value.
  const double inf = graph::kUnreachable;
  std::vector<std::vector<double>> resid{
      {0, inf, inf}, {inf, 0, 3}, {inf, 5, 0}};
  DelayObjective obj(0, {1, 2}, {0, inf, 2}, resid, {0, 0.5, 0.5}, {1, 2},
                     100.0);
  // Candidate 1's direct link was never measured: both legs through 1 are
  // unreachable, even though 1 -> 2 has a finite residual distance.
  EXPECT_EQ(obj.link_value(1, 2), inf);
  EXPECT_EQ(obj.link_value(1, 1), inf);  // v == j returns the direct leg
  // The min-fold over wiring {1, 2} must pick 2's finite path, and wiring
  // {1} alone must pay the penalty on every target.
  const std::vector<NodeId> both{1, 2};
  EXPECT_DOUBLE_EQ(obj.distance_to(both, 2), 2.0);
  EXPECT_NEAR(obj.cost(std::vector<NodeId>{1}), 100.0, 1e-12);
}

TEST(DelayObjectiveTest, BulkFillMatchesLinkValue) {
  const double inf = graph::kUnreachable;
  std::vector<std::vector<double>> resid{
      {0, inf, inf, inf},
      {inf, 0, 2, 7},
      {inf, 2, 0, inf},
      {inf, 6, 1, 0},
  };
  DelayObjective obj(0, {1, 2, 3}, {0, 1, inf, 4}, resid,
                     {0, 1.0 / 3, 1.0 / 3, 1.0 / 3}, {1, 2, 3}, 1000.0);
  const std::vector<NodeId> sources{1, 2, 3};
  const std::vector<NodeId> targets{1, 2, 3};
  std::vector<double> bulk(sources.size() * targets.size());
  obj.fill_link_values(sources, targets, bulk);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    for (std::size_t t = 0; t < targets.size(); ++t) {
      EXPECT_EQ(bulk[s * targets.size() + t],
                obj.link_value(sources[s], targets[t]))
          << sources[s] << " -> " << targets[t];
    }
  }
  std::vector<double> wrong(2);
  EXPECT_THROW(obj.fill_link_values(sources, targets, wrong),
               std::invalid_argument);
}

// Bandwidth fixture: self=0, candidates {1,2}; direct bw 0->1=10, 0->2=3.
// residual bottlenecks: 1->2 = 8, 2->1 = 2.
BandwidthObjective make_bw_fixture() {
  std::vector<std::vector<double>> resid{
      {0, 0, 0}, {0, 0, 8}, {0, 2, 0}};
  return BandwidthObjective(0, {1, 2}, {0, 10, 3}, resid, {1, 2});
}

TEST(BandwidthObjectiveTest, SumsBestBottlenecks) {
  const auto obj = make_bw_fixture();
  // Wiring {1}: bw(0,1)=10, bw(0,2)=min(10,8)=8 -> score 18.
  const std::vector<NodeId> w{1};
  EXPECT_NEAR(obj.score(w), 18.0, 1e-12);
  EXPECT_NEAR(obj.cost(w), -18.0, 1e-12);
}

TEST(BandwidthObjectiveTest, TwoNeighborsTakeMaxPerTarget) {
  const auto obj = make_bw_fixture();
  // Wiring {1,2}: bw(0,1)=max(10, min(3,2))=10, bw(0,2)=max(8, 3)=8.
  const std::vector<NodeId> w{1, 2};
  EXPECT_NEAR(obj.score(w), 18.0, 1e-12);
}

TEST(BandwidthObjectiveTest, UnreachableContributesZero) {
  std::vector<std::vector<double>> resid{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}};
  BandwidthObjective obj(0, {1, 2}, {0, 5, 0}, resid, {1, 2});
  const std::vector<NodeId> w{1};
  EXPECT_NEAR(obj.score(w), 5.0, 1e-12);  // only the direct link to 1
}

TEST(BandwidthObjectiveTest, EmptyWiringScoresZero) {
  const auto obj = make_bw_fixture();
  EXPECT_DOUBLE_EQ(obj.score(std::vector<NodeId>{}), 0.0);
}

TEST(BandwidthObjectiveTest, BulkFillMatchesLinkValue) {
  const auto obj = make_bw_fixture();
  const std::vector<NodeId> sources{1, 2};
  const std::vector<NodeId> targets{1, 2};
  std::vector<double> bulk(4);
  obj.fill_link_values(sources, targets, bulk);
  for (std::size_t s = 0; s < 2; ++s) {
    for (std::size_t t = 0; t < 2; ++t) {
      EXPECT_EQ(bulk[s * 2 + t], obj.link_value(sources[s], targets[t]));
    }
  }
}

// Landmark fixture (§5 scale mode): self = 0 in a 5-node overlay; nodes 3
// and 4 are the landmarks (columns 0 and 1 of the n x L matrix). Row v
// holds v's distance (or bottleneck) to each landmark. Landmark 3's own
// entry is deliberately nonzero, to show a link straight to a landmark
// never adds it.
struct LandmarkFixture {
  graph::DistanceMatrix dist = graph::DistanceMatrix(5, 2, graph::kUnreachable);
  std::vector<std::int32_t> column{-1, -1, -1, 0, 1};
  std::vector<double> direct;

  LandmarkObjective objective(bool maximize, double penalty = 1000.0) const {
    return LandmarkObjective(0, {1, 2, 3, 4}, direct, &dist, &column, {3, 4},
                             maximize, penalty);
  }
};

/// Delay: direct 0->1 = 1, 0->2 = 10, 0->3 = 4, 0->4 unmeasured; landmark
/// distances 1 -> {2, 5}, 2 -> {inf, 1}, 3 -> {100, 4}, 4 -> {3, 0}.
LandmarkFixture delay_landmarks() {
  const double inf = graph::kUnreachable;
  LandmarkFixture f;
  f.direct = {inf, 1.0, 10.0, 4.0, inf};
  const double rows[5][2] = {{inf, inf}, {2, 5}, {inf, 1}, {100, 4}, {3, 0}};
  for (std::size_t v = 0; v < 5; ++v) {
    for (std::size_t c = 0; c < 2; ++c) f.dist(v, c) = rows[v][c];
  }
  return f;
}

TEST(LandmarkObjectiveTest, LinkValueIsDirectPlusLandmarkDistance) {
  const auto f = delay_landmarks();
  const auto obj = f.objective(false);
  EXPECT_DOUBLE_EQ(obj.link_value(1, 3), 1.0 + 2.0);
  EXPECT_DOUBLE_EQ(obj.link_value(1, 4), 1.0 + 5.0);
  EXPECT_DOUBLE_EQ(obj.link_value(2, 4), 10.0 + 1.0);
  EXPECT_DOUBLE_EQ(obj.link_value(3, 4), 4.0 + 4.0);
}

TEST(LandmarkObjectiveTest, UnreachableWhenEitherLegIs) {
  const auto f = delay_landmarks();
  const auto obj = f.objective(false);
  EXPECT_EQ(obj.link_value(2, 3), graph::kUnreachable);  // landmark leg
  EXPECT_EQ(obj.link_value(4, 3), graph::kUnreachable);  // direct leg
}

TEST(LandmarkObjectiveTest, LinkToTheLandmarkIsTheDirectLegAlone) {
  const auto f = delay_landmarks();
  const auto obj = f.objective(false);
  EXPECT_DOUBLE_EQ(obj.link_value(3, 3), 4.0);
  EXPECT_EQ(obj.link_value(4, 4), graph::kUnreachable);
}

TEST(LandmarkObjectiveTest, BandwidthTakesMinOfDirectAndBottleneck) {
  const double inf = graph::kUnreachable;
  LandmarkFixture f;
  f.direct = {0.0, 10.0, 3.0, 8.0, 0.0};
  const double rows[5][2] = {{0, 0}, {6, 20}, {0, 5}, {1, 2}, {7, inf}};
  for (std::size_t v = 0; v < 5; ++v) {
    for (std::size_t c = 0; c < 2; ++c) f.dist(v, c) = rows[v][c];
  }
  const auto obj = f.objective(true);
  EXPECT_TRUE(obj.maximize_link_value());
  EXPECT_DOUBLE_EQ(obj.link_value(1, 3), 6.0);
  EXPECT_DOUBLE_EQ(obj.link_value(1, 4), 10.0);
  EXPECT_DOUBLE_EQ(obj.link_value(2, 3), 0.0);
  EXPECT_DOUBLE_EQ(obj.link_value(3, 3), 8.0);   // direct alone
  EXPECT_DOUBLE_EQ(obj.link_value(4, 3), 0.0);   // unmeasured direct
  // Score of {1, 3}: best per landmark max(6, 8) + max(10, 2) = 18.
  EXPECT_DOUBLE_EQ(obj.cost(std::vector<NodeId>{1, 3}), -18.0);
}

TEST(LandmarkObjectiveTest, FoldAppliesPenaltyOrNegation) {
  const auto f = delay_landmarks();
  const auto delay = f.objective(false, 500.0);
  EXPECT_DOUBLE_EQ(delay.fold(graph::kUnreachable), 500.0);
  EXPECT_DOUBLE_EQ(delay.fold(7.0), 7.0);
  EXPECT_DOUBLE_EQ(delay.fold_penalty(), 500.0);
  // Wiring {2}: landmark 3 unreachable (penalty), landmark 4 at 11.
  EXPECT_DOUBLE_EQ(delay.cost(std::vector<NodeId>{2}), 500.0 + 11.0);
  const auto bandwidth = f.objective(true, 500.0);
  EXPECT_DOUBLE_EQ(bandwidth.fold(7.0), -7.0);
  EXPECT_DOUBLE_EQ(bandwidth.fold_penalty(), 0.0);
}

TEST(LandmarkObjectiveTest, BulkFillMatchesLinkValue) {
  const auto f = delay_landmarks();
  for (const bool maximize : {false, true}) {
    const auto obj = f.objective(maximize);
    const std::vector<NodeId> sources{1, 2, 3, 4};
    const std::vector<NodeId> targets{3, 4};
    std::vector<double> bulk(sources.size() * targets.size());
    obj.fill_link_values(sources, targets, bulk);
    for (std::size_t s = 0; s < sources.size(); ++s) {
      for (std::size_t t = 0; t < targets.size(); ++t) {
        EXPECT_EQ(bulk[s * targets.size() + t],
                  obj.link_value(sources[s], targets[t]));
      }
    }
    std::vector<double> wrong(3);
    EXPECT_THROW(obj.fill_link_values(sources, targets, wrong),
                 std::invalid_argument);
  }
}

TEST(LandmarkObjectiveTest, ValidationErrors) {
  const auto f = delay_landmarks();
  const std::vector<NodeId> candidates{1, 2};
  const std::vector<NodeId> targets{3, 4};
  EXPECT_THROW(LandmarkObjective(0, candidates, f.direct, nullptr, &f.column,
                                 targets, false, 1.0),
               std::invalid_argument);
  EXPECT_THROW(LandmarkObjective(0, candidates, f.direct, &f.dist, nullptr,
                                 targets, false, 1.0),
               std::invalid_argument);
  const std::vector<double> short_direct(4, 1.0);
  EXPECT_THROW(LandmarkObjective(0, candidates, short_direct, &f.dist,
                                 &f.column, targets, false, 1.0),
               std::invalid_argument);
  const std::vector<std::int32_t> short_column{-1, -1, -1, 0};
  EXPECT_THROW(LandmarkObjective(0, candidates, f.direct, &f.dist,
                                 &short_column, targets, false, 1.0),
               std::invalid_argument);
  EXPECT_THROW(LandmarkObjective(5, candidates, f.direct, &f.dist, &f.column,
                                 targets, false, 1.0),
               std::out_of_range);
  EXPECT_THROW(LandmarkObjective(0, {0, 1}, f.direct, &f.dist, &f.column,
                                 targets, false, 1.0),
               std::invalid_argument);
  EXPECT_THROW(LandmarkObjective(0, {1, 7}, f.direct, &f.dist, &f.column,
                                 targets, false, 1.0),
               std::out_of_range);
  EXPECT_THROW(LandmarkObjective(0, candidates, f.direct, &f.dist, &f.column,
                                 {2}, false, 1.0),
               std::invalid_argument);  // 2 is not a landmark
  EXPECT_THROW(LandmarkObjective(0, candidates, f.direct, &f.dist, &f.column,
                                 targets, false, -1.0),
               std::invalid_argument);
}

TEST(LandmarkObjectiveTest, BorrowsTheMeasurementRow) {
  auto f = delay_landmarks();
  const auto obj = f.objective(false);
  EXPECT_DOUBLE_EQ(obj.link_value(1, 3), 3.0);
  // The objective reads the caller's row, not a copy of it.
  f.direct[1] = 2.5;
  EXPECT_DOUBLE_EQ(obj.link_value(1, 3), 2.5 + 2.0);
  f.dist(1, 0) = 7.0;
  EXPECT_DOUBLE_EQ(obj.link_value(1, 3), 2.5 + 7.0);
}

TEST(LandmarkObjectiveTest, CandidatePoolCostBoundsEveryBestResponse) {
  // The scale-mode skip's premise: every proposal is a subset of the
  // candidates (fixed links included) and the objective is monotone in the
  // link set, so cost(candidates) <= best_response(...).cost, exactly.
  // Random objectives over delay and bandwidth, with unreachable direct
  // and landmark legs, fixed links, sticky seeds, and a finite or an
  // infinite fold penalty.
  const double inf = graph::kUnreachable;
  util::Rng rng(77);
  for (int c = 0; c < 400; ++c) {
    const bool maximize = c % 2 == 1;
    const auto n = static_cast<std::size_t>(rng.uniform_int(4, 40));
    const auto landmarks = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(n) - 1));
    const auto self = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    std::vector<NodeId> others;
    for (std::size_t v = 0; v < n; ++v) {
      if (static_cast<NodeId>(v) != self) others.push_back(static_cast<NodeId>(v));
    }
    // Landmarks: a random subset of the nodes, columns in id order.
    std::vector<std::int32_t> column(n, -1);
    std::vector<NodeId> targets;
    const auto picked = rng.sample_without_replacement(
        std::span<const NodeId>(others), landmarks);
    for (NodeId l : picked) targets.push_back(l);
    std::sort(targets.begin(), targets.end());
    for (std::size_t i = 0; i < targets.size(); ++i) {
      column[static_cast<std::size_t>(targets[i])] = static_cast<std::int32_t>(i);
    }
    // Unreachable legs: kUnreachable for delay, 0 for bandwidth (the
    // unmeasured value); landmark legs may be unreachable too.
    graph::DistanceMatrix dist(n, targets.size(), inf);
    std::vector<double> direct(n, maximize ? 0.0 : inf);
    for (std::size_t v = 0; v < n; ++v) {
      if (!rng.chance(0.2)) direct[v] = rng.uniform(1.0, 100.0);
      for (std::size_t l = 0; l < targets.size(); ++l) {
        dist(v, l) = rng.chance(0.2) ? (maximize ? 0.0 : inf)
                                     : rng.uniform(0.0, 200.0);
      }
    }
    const auto candidates = rng.sample_without_replacement(
        std::span<const NodeId>(others),
        static_cast<std::size_t>(rng.uniform_int(
            1, static_cast<std::int64_t>(others.size()))));
    const double penalty = c % 3 == 0 ? inf : 1e9;
    const LandmarkObjective objective(self, candidates, direct, &dist, &column,
                                      targets, maximize, penalty);

    BestResponseOptions options;
    options.exact_budget = c % 4 == 0 ? 20'000 : 0;
    if (c % 5 < 2 && candidates.size() > 1) {
      options.fixed_links.assign(candidates.begin(), candidates.begin() + 1);
    }
    options.seed_wiring = rng.sample_without_replacement(
        std::span<const NodeId>(others),
        static_cast<std::size_t>(rng.uniform_int(0, 3)));
    const auto k = static_cast<std::size_t>(rng.uniform_int(0, 6));
    const auto br = best_response(objective, k, options);
    const double bound = objective.cost(candidates);
    EXPECT_LE(bound, br.cost) << "case " << c;
    // Monotone in the link set: no subset of the pool costs less.
    std::vector<NodeId> subset;
    for (NodeId v : candidates) {
      if (rng.chance(0.5)) subset.push_back(v);
    }
    EXPECT_LE(bound, objective.cost(subset)) << "case " << c;
  }
}

}  // namespace
}  // namespace egoist::core
