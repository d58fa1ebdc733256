#include "graph/metrics.hpp"

#include <gtest/gtest.h>

#include "graph/shortest_path.hpp"

namespace egoist::graph {
namespace {

TEST(RoutingCostTest, WeightsByPreference) {
  const std::vector<double> dist{0.0, 2.0, 4.0};
  const std::vector<double> pref{0.0, 0.75, 0.25};
  EXPECT_DOUBLE_EQ(routing_cost(dist, pref, 0, 1000.0), 0.75 * 2.0 + 0.25 * 4.0);
}

TEST(RoutingCostTest, UnreachableUsesPenalty) {
  const std::vector<double> dist{0.0, kUnreachable};
  const std::vector<double> pref{0.0, 1.0};
  EXPECT_DOUBLE_EQ(routing_cost(dist, pref, 0, 500.0), 500.0);
}

TEST(RoutingCostTest, SizeMismatchRejected) {
  EXPECT_THROW(routing_cost({0.0, 1.0}, {1.0}, 0, 1.0), std::invalid_argument);
}

TEST(UniformRoutingCostTest, AveragesOverTargets) {
  const std::vector<double> dist{0.0, 2.0, 4.0, 6.0};
  const std::vector<NodeId> targets{0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(uniform_routing_cost(dist, 0, targets, 100.0), (2.0 + 4.0 + 6.0) / 3.0);
}

TEST(UniformRoutingCostTest, EmptyTargetsZero) {
  EXPECT_DOUBLE_EQ(uniform_routing_cost({0.0}, 0, {0}, 10.0), 0.0);
}

TEST(EfficiencyTest, PerfectlyConnectedUnitGraph) {
  // All distances 1 -> efficiency exactly 1.
  const std::vector<double> dist{0.0, 1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(node_efficiency(dist, 0, {0, 1, 2, 3}), 1.0);
}

TEST(EfficiencyTest, DisconnectedContributesZero) {
  const std::vector<double> dist{0.0, 1.0, kUnreachable};
  EXPECT_DOUBLE_EQ(node_efficiency(dist, 0, {0, 1, 2}), 0.5);
}

TEST(EfficiencyTest, FullyDisconnectedIsZero) {
  const std::vector<double> dist{0.0, kUnreachable, kUnreachable};
  EXPECT_DOUBLE_EQ(node_efficiency(dist, 0, {0, 1, 2}), 0.0);
}

TEST(EfficiencyTest, FartherIsLess) {
  const std::vector<double> near{0.0, 1.0};
  const std::vector<double> far{0.0, 10.0};
  EXPECT_GT(node_efficiency(near, 0, {0, 1}), node_efficiency(far, 0, {0, 1}));
}

}  // namespace
}  // namespace egoist::graph
