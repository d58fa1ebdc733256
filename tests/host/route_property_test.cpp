// Property test for RouteService query answers: for random small overlays
// (policies x churn-induced offline nodes), every route() and path() answer
// must match graph::dijkstra on the snapshot's announced graph — the same
// cost bits, first hop and node sequence (the service's search settles
// nodes in dijkstra's (dist, id) order, so even ties resolve alike), plus
// validity of the returned sequence, unreachable pairs, offline-node and
// out-of-range edge cases. Each overlay runs twice: with the default row
// cache (every answer from a cached row) and with a cap of 0 rows (every
// answer from a search stopped at dst).
#include "host/route_service.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "churn/churn.hpp"
#include "graph/shortest_path.hpp"
#include "host/overlay_host.hpp"

namespace egoist {
namespace {

struct Scenario {
  std::size_t n;
  overlay::Policy policy;
  std::uint64_t seed;
  bool churn;
  bool uncached = false;  ///< serve with max_cached_sources = 0
};

host::RouteService::Options service_options(const Scenario& scenario) {
  host::RouteService::Options options;
  if (scenario.uncached) options.max_cached_sources = 0;
  return options;
}

class RoutePropertyTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(RoutePropertyTest, PathAnswersMatchReferenceOnAnnouncedGraph) {
  const auto scenario = GetParam();
  host::OverlayHost host(scenario.n, scenario.seed);
  overlay::OverlayConfig config;
  config.policy = scenario.policy;
  config.metric = overlay::Metric::kDelayPing;
  config.k = 3;
  config.seed = scenario.seed ^ 0xF00Dull;
  host::OverlaySpec spec(config);
  if (scenario.churn) {
    churn::ChurnConfig churn_config;
    churn_config.timescale = 0.05;
    churn_config.initial_on_fraction = 0.8;
    spec.churn(churn::ChurnTrace(scenario.n, 6 * 60.0,
                                 scenario.seed ^ 0xC0FFEEull, churn_config));
  }
  const auto handle = host.deploy(spec);
  host::RouteService service(host, handle, service_options(scenario));
  host.run_epochs(handle, 6);

  const auto pinned = service.acquire();
  const auto& snap = pinned.snapshot();
  const auto& announced = snap.announced_graph();
  const auto n = static_cast<graph::NodeId>(scenario.n);

  for (graph::NodeId src = 0; src < n; ++src) {
    graph::ShortestPathTree reference;
    const bool src_online = snap.is_online(src);
    if (src_online) reference = graph::dijkstra(announced, src);
    for (graph::NodeId dst = 0; dst < n; ++dst) {
      const auto answer = pinned.path(src, dst);
      const auto route = pinned.route(src, dst);
      if (!src_online || !snap.is_online(dst)) {
        EXPECT_FALSE(answer.reachable) << src << "->" << dst;
        EXPECT_FALSE(route.reachable);
        EXPECT_TRUE(answer.nodes.empty());
        EXPECT_EQ(answer.cost, graph::kUnreachable);
        continue;
      }
      if (src == dst) {
        ASSERT_TRUE(answer.reachable);
        EXPECT_EQ(answer.cost, 0.0);
        EXPECT_EQ(answer.nodes, std::vector<graph::NodeId>{src});
        EXPECT_EQ(route.next_hop, src);
        continue;
      }
      const double ref_cost = reference.dist[static_cast<std::size_t>(dst)];
      if (ref_cost == graph::kUnreachable) {
        EXPECT_FALSE(answer.reachable) << src << "->" << dst;
        EXPECT_FALSE(route.reachable);
        continue;
      }
      ASSERT_TRUE(answer.reachable) << src << "->" << dst;
      EXPECT_EQ(answer.cost, ref_cost) << src << "->" << dst;
      EXPECT_EQ(route.cost, ref_cost);
      EXPECT_EQ(answer.nodes, graph::extract_path(reference, src, dst))
          << src << "->" << dst;
      // The returned sequence must itself be a valid src->dst walk whose
      // announced edge weights sum to the claimed cost.
      ASSERT_GE(answer.nodes.size(), 2u);
      EXPECT_EQ(answer.nodes.front(), src);
      EXPECT_EQ(answer.nodes.back(), dst);
      EXPECT_EQ(route.next_hop, answer.nodes[1]);
      double total = 0.0;
      for (std::size_t i = 0; i + 1 < answer.nodes.size(); ++i) {
        ASSERT_TRUE(announced.has_edge(answer.nodes[i], answer.nodes[i + 1]));
        total += announced.edge_weight(answer.nodes[i], answer.nodes[i + 1]);
      }
      EXPECT_NEAR(total, answer.cost, 1e-9 * (1.0 + answer.cost));
    }
  }

  // The cap decides which path answered: cached rows, or none at all.
  const auto stats = service.stats();
  if (scenario.uncached) {
    EXPECT_EQ(stats.rows_built, 0u);
    EXPECT_GT(stats.uncached_queries, 0u);
  } else {
    EXPECT_EQ(stats.uncached_queries, 0u);
  }

  // Out-of-range ids throw instead of answering garbage.
  EXPECT_THROW((void)pinned.route(-1, 0), std::out_of_range);
  EXPECT_THROW((void)pinned.path(0, n), std::out_of_range);
  EXPECT_THROW((void)pinned.score(n), std::out_of_range);
}

TEST_P(RoutePropertyTest, ScoreMatchesSnapshotNodeCosts) {
  const auto scenario = GetParam();
  host::OverlayHost host(scenario.n, scenario.seed);
  overlay::OverlayConfig config;
  config.policy = scenario.policy;
  config.k = 3;
  config.seed = scenario.seed;
  const auto handle = host.deploy(host::OverlaySpec(config));
  host::RouteService service(host, handle, service_options(scenario));
  host.run_epochs(handle, 4);

  const auto pinned = service.acquire();
  const auto& snap = pinned.snapshot();
  const auto costs = snap.node_costs();  // full sweep, online order
  const auto& online = snap.online_nodes();
  for (std::size_t i = 0; i < online.size(); ++i) {
    // Single-node score is bit-identical to the matching sweep entry.
    EXPECT_EQ(pinned.score(online[i]), costs[i]) << "node " << online[i];
  }
}

std::string scenario_name(const ::testing::TestParamInfo<Scenario>& info) {
  const auto& s = info.param;
  return (s.policy == overlay::Policy::kHybridBR ? "HybridBR" : "BR") +
         std::string("_n") + std::to_string(s.n) + "_seed" +
         std::to_string(s.seed) + (s.churn ? "_churn" : "_stable");
}

std::vector<Scenario> small_overlays(bool uncached) {
  std::vector<Scenario> scenarios = {
      Scenario{8, overlay::Policy::kBestResponse, 1, false},
      Scenario{12, overlay::Policy::kBestResponse, 2, true},
      Scenario{12, overlay::Policy::kHybridBR, 3, true},
      Scenario{20, overlay::Policy::kBestResponse, 4, true},
      Scenario{16, overlay::Policy::kHybridBR, 5, false}};
  for (auto& scenario : scenarios) scenario.uncached = uncached;
  return scenarios;
}

INSTANTIATE_TEST_SUITE_P(SmallOverlays, RoutePropertyTest,
                         ::testing::ValuesIn(small_overlays(false)),
                         scenario_name);
INSTANTIATE_TEST_SUITE_P(Uncached, RoutePropertyTest,
                         ::testing::ValuesIn(small_overlays(true)),
                         scenario_name);

}  // namespace
}  // namespace egoist
