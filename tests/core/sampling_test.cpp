#include "core/sampling.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace egoist::core {
namespace {

TEST(RandomSampleTest, SizeAndMembership) {
  util::Rng rng(5);
  const std::vector<NodeId> candidates{1, 2, 3, 4, 5, 6, 7, 8};
  const auto s = random_sample(candidates, 3, rng);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  for (NodeId v : s) {
    EXPECT_NE(std::find(candidates.begin(), candidates.end(), v), candidates.end());
  }
}

TEST(RandomSampleTest, CappedAtPoolSize) {
  util::Rng rng(7);
  EXPECT_EQ(random_sample({4, 9}, 10, rng), (std::vector<NodeId>{4, 9}));
}

// Star fixture: node 1 has a big 1-hop neighborhood, node 2 a small one.
graph::Digraph star_graph() {
  graph::Digraph g(8);
  // 1 -> {3,4,5,6}; 2 -> {7}.
  for (NodeId v : {3, 4, 5, 6}) g.set_edge(1, v, 1.0);
  g.set_edge(2, 7, 1.0);
  return g;
}

graph::CsrGraph star_fixture() { return graph::CsrGraph(star_graph()); }

TEST(BiasedRankTest, LargerNeighborhoodRanksHigher) {
  const auto g = star_fixture();
  // All direct costs equal: the neighborhood size should dominate.
  const std::vector<double> direct(8, 10.0);
  const double r1 = biased_rank(g, 0, 1, direct, 1);
  const double r2 = biased_rank(g, 0, 2, direct, 1);
  // b_01 = 4 / 40 = 0.1; b_02 = 1 / 10 = 0.1 -> equal per-member value;
  // with radius 2 nothing changes here, so test a truly dominant case:
  EXPECT_DOUBLE_EQ(r1, 4.0 / 40.0);
  EXPECT_DOUBLE_EQ(r2, 1.0 / 10.0);
}

TEST(BiasedRankTest, CloserNeighborhoodsRankHigher) {
  const auto g = star_fixture();
  // Nodes behind 1 are close to the newcomer; node 7 (behind 2) is far.
  std::vector<double> direct(8, 0.0);
  direct[3] = direct[4] = direct[5] = direct[6] = 5.0;
  direct[7] = 100.0;
  EXPECT_GT(biased_rank(g, 0, 1, direct, 1), biased_rank(g, 0, 2, direct, 1));
}

TEST(BiasedRankTest, EmptyNeighborhoodRanksZero) {
  const auto g = star_fixture();
  const std::vector<double> direct(8, 1.0);
  EXPECT_DOUBLE_EQ(biased_rank(g, 0, 5, direct, 1), 0.0);  // leaf node
}

TEST(BiasedRankTest, RadiusExpandsNeighborhood) {
  graph::Digraph chain(4);
  chain.set_edge(1, 2, 1.0);
  chain.set_edge(2, 3, 1.0);
  const graph::CsrGraph g(chain);
  const std::vector<double> direct(4, 2.0);
  // radius 1: F(1) = {2}; radius 2: F(1) = {2, 3}.
  EXPECT_DOUBLE_EQ(biased_rank(g, 0, 1, direct, 1), 1.0 / 2.0);
  EXPECT_DOUBLE_EQ(biased_rank(g, 0, 1, direct, 2), 2.0 / 4.0);
}

TEST(TopologyBiasedSampleTest, PrefersHighRankNodes) {
  // Candidates: 1 (hub) and several leaves; with m=1 and full oversampling
  // the hub must always be chosen.
  const auto g = star_fixture();
  std::vector<double> direct(8, 10.0);
  direct[7] = 1000.0;  // make 2's neighborhood unattractive
  const std::vector<NodeId> candidates{1, 2, 3, 4, 5};
  util::Rng rng(9);
  BiasedSamplingOptions options;
  options.oversample = 10.0;  // m' covers the whole pool
  const auto s = topology_biased_sample(g, 0, direct, candidates, 1, rng, options);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], 1);
}

TEST(TopologyBiasedSampleTest, ReturnsRequestedSize) {
  const auto g = star_fixture();
  const std::vector<double> direct(8, 1.0);
  const std::vector<NodeId> candidates{1, 2, 3, 4, 5, 6, 7};
  util::Rng rng(11);
  const auto s = topology_biased_sample(g, 0, direct, candidates, 4, rng);
  EXPECT_EQ(s.size(), 4u);
  const std::set<NodeId> unique(s.begin(), s.end());
  EXPECT_EQ(unique.size(), 4u);
}

TEST(TopologyBiasedSampleTest, Rejections) {
  const auto g = star_fixture();
  const std::vector<double> direct(8, 1.0);
  util::Rng rng(1);
  BiasedSamplingOptions bad_radius;
  bad_radius.radius = -1;
  EXPECT_THROW(
      topology_biased_sample(g, 0, direct, {1, 2}, 1, rng, bad_radius),
      std::invalid_argument);
  BiasedSamplingOptions bad_oversample;
  bad_oversample.oversample = 0.5;
  EXPECT_THROW(
      topology_biased_sample(g, 0, direct, {1, 2}, 1, rng, bad_oversample),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// F(v_j), the r-hop out-neighborhood behind the rank. With direct cost 2^u
// to node u, distinct neighborhoods rank differently, so comparing a rank
// against hood_rank(expected members) pins F exactly. The newcomer (self)
// is an extra isolated node, never a member.

std::vector<double> power_of_two_costs(std::size_t n) {
  std::vector<double> direct(n);
  for (std::size_t u = 0; u < n; ++u) {
    direct[u] = std::ldexp(1.0, static_cast<int>(u));
  }
  return direct;
}

double hood_rank(std::initializer_list<NodeId> members) {
  double denom = 0.0;
  for (NodeId u : members) denom += std::ldexp(1.0, u);
  return members.size() == 0 ? 0.0
                             : static_cast<double>(members.size()) / denom;
}

TEST(NeighborhoodTest, CountsWithinRadius) {
  // Chain 0->1->2->3; node 4 is the newcomer.
  graph::Digraph chain(5);
  chain.set_edge(0, 1, 1.0);
  chain.set_edge(1, 2, 1.0);
  chain.set_edge(2, 3, 1.0);
  const graph::CsrGraph g(chain);
  const auto direct = power_of_two_costs(5);
  EXPECT_DOUBLE_EQ(biased_rank(g, 4, 0, direct, 1), hood_rank({1}));
  EXPECT_DOUBLE_EQ(biased_rank(g, 4, 0, direct, 2), hood_rank({1, 2}));
  EXPECT_DOUBLE_EQ(biased_rank(g, 4, 0, direct, 3), hood_rank({1, 2, 3}));
  EXPECT_DOUBLE_EQ(biased_rank(g, 4, 0, direct, 0), hood_rank({}));
}

TEST(NeighborhoodTest, ExcludesSelfEvenOnCycle) {
  // Cycle 0->1->2->0: a radius past the cycle length must not count 0.
  graph::Digraph cycle(4);
  cycle.set_edge(0, 1, 1.0);
  cycle.set_edge(1, 2, 1.0);
  cycle.set_edge(2, 0, 1.0);
  const graph::CsrGraph g(cycle);
  EXPECT_DOUBLE_EQ(biased_rank(g, 3, 0, power_of_two_costs(4), 10),
                   hood_rank({1, 2}));
}

TEST(NeighborhoodTest, MembersAreCorrect) {
  graph::Digraph path(4);
  path.set_edge(0, 2, 1.0);
  path.set_edge(2, 3, 1.0);
  const graph::CsrGraph g(path);
  const auto direct = power_of_two_costs(4);
  EXPECT_DOUBLE_EQ(biased_rank(g, 1, 0, direct, 1), hood_rank({2}));
  EXPECT_DOUBLE_EQ(biased_rank(g, 1, 0, direct, 2), hood_rank({2, 3}));
}

TEST(NeighborhoodTest, NegativeRadiusRejected) {
  const graph::CsrGraph g(graph::Digraph(2));
  EXPECT_THROW(biased_rank(g, 1, 0, power_of_two_costs(2), -1),
               std::invalid_argument);
}

TEST(HopDistanceTest, CountsHopsNotWeights) {
  // Diamond 0->{1,2}->3 whose direct 0->2 edge is heavier than the detour
  // through 1: 2 is still one hop away, 3 two.
  graph::Digraph diamond(5);
  diamond.set_edge(0, 1, 1.0);
  diamond.set_edge(0, 2, 4.0);
  diamond.set_edge(1, 2, 2.0);
  diamond.set_edge(2, 3, 1.0);
  diamond.set_edge(1, 3, 5.0);
  const graph::CsrGraph g(diamond);
  const auto direct = power_of_two_costs(5);
  EXPECT_DOUBLE_EQ(biased_rank(g, 4, 0, direct, 1), hood_rank({1, 2}));
  EXPECT_DOUBLE_EQ(biased_rank(g, 4, 0, direct, 2), hood_rank({1, 2, 3}));
}

TEST(HopDistanceTest, UnreachableIsMinusOne) {
  // Node 2 has no path from 0 (and node 3 is churned out): at any radius
  // only the reachable, active nodes are members.
  graph::Digraph g(5);
  g.set_edge(0, 1, 1.0);
  g.set_edge(0, 3, 1.0);
  g.set_edge(2, 0, 1.0);
  g.set_active(3, false);
  EXPECT_DOUBLE_EQ(
      biased_rank(graph::CsrGraph(g), 4, 0, power_of_two_costs(5), 10),
      hood_rank({1}));
}

}  // namespace
}  // namespace egoist::core
