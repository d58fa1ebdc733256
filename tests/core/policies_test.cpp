#include "core/policies.hpp"

#include <gtest/gtest.h>

#include <set>

#include "../graph/residual_reference.hpp"
#include "net/delay_space.hpp"

namespace egoist::core {
namespace {

TEST(KRandomTest, SizeAndDistinctness) {
  util::Rng rng(3);
  const std::vector<NodeId> candidates{1, 2, 3, 4, 5, 6, 7};
  const auto w = select_k_random(candidates, 4, rng);
  EXPECT_EQ(w.size(), 4u);
  EXPECT_TRUE(std::is_sorted(w.begin(), w.end()));
  const std::set<NodeId> unique(w.begin(), w.end());
  EXPECT_EQ(unique.size(), 4u);
  for (NodeId v : w) {
    EXPECT_NE(std::find(candidates.begin(), candidates.end(), v), candidates.end());
  }
}

TEST(KRandomTest, TakesAllWhenKExceedsPool) {
  util::Rng rng(5);
  const auto w = select_k_random({1, 2}, 10, rng);
  EXPECT_EQ(w, (std::vector<NodeId>{1, 2}));
}

TEST(KClosestTest, PicksMinimumCostCandidates) {
  //               id:   0    1    2    3    4
  std::vector<double> c{9.0, 3.0, 7.0, 1.0, 5.0};
  const auto w = select_k_closest({1, 2, 3, 4}, c, 2);
  EXPECT_EQ(w, (std::vector<NodeId>{1, 3}));
}

TEST(KClosestTest, TieBreaksTowardLowerId) {
  std::vector<double> c{0.0, 2.0, 2.0, 2.0};
  const auto w = select_k_closest({1, 2, 3}, c, 2);
  EXPECT_EQ(w, (std::vector<NodeId>{1, 2}));
}

TEST(KClosestTest, RejectsOutOfRangeCandidate) {
  std::vector<double> c{0.0, 1.0};
  EXPECT_THROW(select_k_closest({5}, c, 1), std::out_of_range);
}

TEST(KWidestTest, PicksMaximumValueCandidates) {
  std::vector<double> bw{0.0, 3.0, 9.0, 1.0, 5.0};
  const auto w = select_k_widest({1, 2, 3, 4}, bw, 2);
  EXPECT_EQ(w, (std::vector<NodeId>{2, 4}));
}

TEST(KRegularTest, PaperOffsetsExactWhenDivisible) {
  // n=13, k=2: stride (n-1)/(k+1) = 4 -> offsets {1, 5}.
  EXPECT_EQ(k_regular_offsets(13, 2), (std::vector<int>{1, 5}));
  // n=10, k=2: stride 3 -> offsets {1, 4}.
  EXPECT_EQ(k_regular_offsets(10, 2), (std::vector<int>{1, 4}));
}

TEST(KRegularTest, WiringWrapsAroundRing) {
  // n=10, k=2 -> offsets {1,4}; node 8 connects to 9 and 2.
  EXPECT_EQ(select_k_regular(8, 10, 2), (std::vector<NodeId>{2, 9}));
}

TEST(KRegularTest, AllNodesGetSamePattern) {
  const std::size_t n = 13;
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    const auto w = select_k_regular(v, n, 3);
    EXPECT_EQ(w.size(), 3u);
    for (NodeId t : w) EXPECT_NE(t, v);
  }
}

TEST(KRegularTest, OffsetsDistinct) {
  for (std::size_t n : {8, 20, 50}) {
    for (std::size_t k = 1; k < 7; ++k) {
      const auto offsets = k_regular_offsets(n, k);
      const std::set<int> unique(offsets.begin(), offsets.end());
      EXPECT_EQ(unique.size(), offsets.size());
      for (int o : offsets) {
        EXPECT_GE(o, 1);
        EXPECT_LT(o, static_cast<int>(n));
      }
    }
  }
}

TEST(KRegularTest, Rejections) {
  EXPECT_THROW(k_regular_offsets(1, 1), std::invalid_argument);
  EXPECT_THROW(k_regular_offsets(10, 0), std::invalid_argument);
  EXPECT_THROW(k_regular_offsets(10, 10), std::invalid_argument);
  EXPECT_THROW(select_k_regular(10, 10, 2), std::out_of_range);
}

// --- Best response ---

/// Builds a delay objective over a random overlay for BR testing.
DelayObjective random_objective(std::uint64_t seed, std::size_t n, std::size_t k) {
  const auto delays = net::make_planetlab_like(n, seed);
  graph::Digraph overlay(n);
  util::Rng rng(seed ^ 0xABCD);
  // Random residual wiring for everyone (self's wiring is irrelevant).
  for (NodeId u = 0; u < static_cast<NodeId>(n); ++u) {
    std::vector<NodeId> candidates;
    for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
      if (v != u) candidates.push_back(v);
    }
    for (NodeId v : select_k_random(candidates, k, rng)) {
      overlay.set_edge(u, v, delays.delay(u, v));
    }
  }
  std::vector<double> direct(n);
  for (std::size_t v = 1; v < n; ++v) direct[v] = delays.delay(0, static_cast<int>(v));
  return egoist::testing::reference_delay_objective(overlay, 0, direct);
}

TEST(BestResponseTest, ExactBeatsOrMatchesEveryHeuristicWiring) {
  const auto obj = random_objective(11, 12, 2);
  BestResponseOptions options;
  options.exact_budget = 100'000;
  const auto br = best_response(obj, 2, options);
  EXPECT_TRUE(br.exact);
  EXPECT_EQ(br.wiring.size(), 2u);
  // Against every possible pair (exhaustive ground truth).
  for (NodeId a = 1; a < 12; ++a) {
    for (NodeId b = a + 1; b < 12; ++b) {
      const std::vector<NodeId> w{a, b};
      EXPECT_LE(br.cost, obj.cost(w) + 1e-9);
    }
  }
}

TEST(BestResponseTest, LocalSearchWithinFivePercentOfExact) {
  // The paper reports its local-search BR within 5% of optimal; enforce
  // that bound across seeds.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto obj = random_objective(seed, 14, 3);
    BestResponseOptions exact_opts;
    exact_opts.exact_budget = 1'000'000;
    const auto exact = best_response(obj, 3, exact_opts);
    ASSERT_TRUE(exact.exact);
    BestResponseOptions ls_opts;
    ls_opts.exact_budget = 0;  // force greedy + swaps
    const auto approx = best_response(obj, 3, ls_opts);
    EXPECT_FALSE(approx.exact);
    EXPECT_LE(approx.cost, exact.cost * 1.05 + 1e-9) << "seed " << seed;
    EXPECT_GE(approx.cost, exact.cost - 1e-9);
  }
}

TEST(BestResponseTest, CostMatchesReportedWiring) {
  const auto obj = random_objective(21, 15, 3);
  BestResponseOptions options;
  options.exact_budget = 0;
  const auto br = best_response(obj, 3, options);
  EXPECT_NEAR(obj.cost(br.wiring), br.cost, 1e-9);
}

TEST(BestResponseTest, FixedLinksAreHonored) {
  const auto obj = random_objective(31, 12, 2);
  BestResponseOptions options;
  options.fixed_links = {5};
  const auto br = best_response(obj, 2, options);
  // Free wiring must not duplicate the fixed link.
  EXPECT_EQ(std::find(br.wiring.begin(), br.wiring.end(), 5), br.wiring.end());
  EXPECT_EQ(br.wiring.size(), 2u);
  // Reported cost includes the fixed link.
  std::vector<NodeId> full = br.wiring;
  full.push_back(5);
  EXPECT_NEAR(obj.cost(full), br.cost, 1e-9);
}

TEST(BestResponseTest, FixedLinksOnlyWhenKZero) {
  const auto obj = random_objective(41, 10, 2);
  BestResponseOptions options;
  options.fixed_links = {3, 7};
  const auto br = best_response(obj, 0, options);
  EXPECT_TRUE(br.wiring.empty());
  const std::vector<NodeId> fixed{3, 7};
  EXPECT_NEAR(br.cost, obj.cost(fixed), 1e-9);
}

TEST(BestResponseTest, MoreLinksNeverHurt) {
  // BR cost is monotone non-increasing in k (superset wirings available).
  const auto obj = random_objective(51, 16, 3);
  BestResponseOptions options;
  options.exact_budget = 0;
  double prev = std::numeric_limits<double>::infinity();
  for (std::size_t k = 1; k <= 6; ++k) {
    const auto br = best_response(obj, k, options);
    EXPECT_LE(br.cost, prev + 1e-9) << "k=" << k;
    prev = br.cost;
  }
}

TEST(BestResponseTest, KLargerThanPoolTakesEverything) {
  const auto obj = random_objective(61, 8, 2);
  const auto br = best_response(obj, 100);
  EXPECT_EQ(br.wiring.size(), 7u);  // all other nodes
}

// Property sweep: BR (local search) never loses to k-Random or k-Closest
// on the same objective — the core claim behind every figure.
class BrDominanceTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(BrDominanceTest, BrAtLeastAsGoodAsHeuristics) {
  const auto [seed, k] = GetParam();
  const auto obj = random_objective(seed, 20, k);
  BestResponseOptions options;
  options.exact_budget = 0;
  const auto br = best_response(obj, k, options);

  util::Rng rng(seed * 7 + 1);
  std::vector<double> direct(20, 0.0);
  // Rebuild the same direct costs used by random_objective.
  const auto delays = net::make_planetlab_like(20, seed);
  for (int v = 1; v < 20; ++v) direct[static_cast<std::size_t>(v)] = delays.delay(0, v);

  const auto random_w = select_k_random(obj.candidates(), k, rng);
  const auto closest_w = select_k_closest(obj.candidates(), direct, k);
  EXPECT_LE(br.cost, obj.cost(random_w) + 1e-9);
  EXPECT_LE(br.cost, obj.cost(closest_w) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndK, BrDominanceTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(std::size_t{2}, std::size_t{4})));

}  // namespace
}  // namespace egoist::core
