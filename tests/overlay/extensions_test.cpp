// Tests for the paper's optional/extension mechanisms: MST backbones,
// immediate re-wiring, and coordinate-based cheating audits.
#include <gtest/gtest.h>

#include "graph/connectivity.hpp"
#include "overlay/network.hpp"
#include "util/stats.hpp"

namespace egoist::overlay {
namespace {

OverlayConfig hybrid_config(Backbone backbone, std::uint64_t seed) {
  OverlayConfig config;
  config.policy = Policy::kHybridBR;
  config.k = 5;
  config.donated_links = 2;
  config.backbone = backbone;
  config.seed = seed;
  return config;
}

TEST(MstBackboneTest, BackboneIsConnectedAndBounded) {
  Environment env(20, 61);
  EgoistNetwork net(env, hybrid_config(Backbone::kMst, 61));
  graph::Digraph backbone(20);
  for (int v = 0; v < 20; ++v) {
    EXPECT_LE(net.donated(v).size(), 2u);
    for (graph::NodeId d : net.donated(v)) backbone.set_edge(v, d, 1.0);
  }
  // Tree edges donated from both endpoints keep the mesh weakly connected.
  EXPECT_TRUE(graph::is_weakly_connected(backbone));
}

TEST(MstBackboneTest, SplicesAfterChurn) {
  Environment env(16, 63);
  EgoistNetwork net(env, hybrid_config(Backbone::kMst, 63));
  net.set_online(4, false);
  net.set_online(9, false);
  for (int v = 0; v < 16; ++v) {
    if (!net.is_online(v)) continue;
    for (graph::NodeId d : net.donated(v)) {
      EXPECT_TRUE(net.is_online(d)) << "donated link to dead node";
    }
  }
}

TEST(ImmediateRewireTest, RepairsWithoutWaitingForEpoch) {
  Environment env(18, 65);
  OverlayConfig config;
  config.policy = Policy::kBestResponse;
  config.k = 3;
  config.seed = 65;
  config.rewire_mode = RewireMode::kImmediate;
  EgoistNetwork net(env, config);
  // Find a node that is someone's neighbor and kill it.
  const int victim = net.wiring(0).front();
  net.set_online(victim, false);
  // Without running an epoch, no online node still points at the victim.
  for (int v = 0; v < 18; ++v) {
    if (!net.is_online(v)) continue;
    const auto& w = net.wiring(v);
    EXPECT_EQ(std::find(w.begin(), w.end(), victim), w.end())
        << "node " << v << " still wired to dead neighbor";
  }
  EXPECT_TRUE(graph::is_strongly_connected(net.true_cost_graph()));
}

TEST(ImmediateRewireTest, RepairsCountAsEvaluations) {
  Environment env(18, 65);
  OverlayConfig config;
  config.policy = Policy::kBestResponse;
  config.k = 3;
  config.seed = 65;
  config.rewire_mode = RewireMode::kImmediate;
  EgoistNetwork net(env, config);
  net.run_epoch();
  const int victim = net.wiring(0).front();
  std::uint64_t holders = 0;
  for (int v = 0; v < 18; ++v) {
    const auto w = net.wiring(v);
    if (v != victim && std::find(w.begin(), w.end(), victim) != w.end()) {
      ++holders;
    }
  }
  const std::uint64_t evaluations = net.total_evaluations();
  const std::uint64_t rewirings = net.total_rewirings();
  net.set_online(victim, false);
  // Every holder of the departed node re-evaluated once, right away.
  EXPECT_EQ(net.total_evaluations() - evaluations, holders);
  EXPECT_GT(net.total_rewirings(), rewirings);
  EXPECT_LE(net.total_rewirings(), net.total_evaluations());
}

TEST(ImmediateRewireTest, DelayedModeWaitsForEpoch) {
  Environment env(18, 65);
  OverlayConfig config;
  config.policy = Policy::kBestResponse;
  config.k = 3;
  config.seed = 65;
  config.rewire_mode = RewireMode::kDelayed;
  EgoistNetwork net(env, config);
  const int victim = net.wiring(0).front();
  net.set_online(victim, false);
  // Delayed mode: stale links persist until the next epoch...
  bool any_stale = false;
  for (int v = 0; v < 18 && !any_stale; ++v) {
    if (!net.is_online(v)) continue;
    const auto& w = net.wiring(v);
    any_stale = std::find(w.begin(), w.end(), victim) != w.end();
  }
  EXPECT_TRUE(any_stale);
  // ...and the epoch repairs them.
  net.run_epoch();
  for (int v = 0; v < 18; ++v) {
    if (!net.is_online(v)) continue;
    const auto& w = net.wiring(v);
    EXPECT_EQ(std::find(w.begin(), w.end(), victim), w.end());
  }
}

TEST(AuditTest, AuditsNeutralizeInflatedAnnouncements) {
  // A cheater inflating 4x is flagrant enough for coordinate audits to
  // catch; with audits on, other nodes treat its links at their estimated
  // (true-ish) cost, so the overlay keeps using it as a relay.
  const std::size_t n = 30;
  const std::uint64_t seed = 67;
  auto run = [&](bool audits) {
    Environment env(n, seed);
    OverlayConfig config;
    config.policy = Policy::kBestResponse;
    config.k = 3;
    config.seed = seed;
    config.cheaters = {2};
    config.cheat_factor = 4.0;
    config.enable_audits = audits;
    EgoistNetwork net(env, config);
    for (int e = 0; e < 6; ++e) {
      env.advance(60.0);
      net.run_epoch();
    }
    // How many nodes route through the cheater (it appears in wirings)?
    int in_degree = 0;
    for (int v = 0; v < static_cast<int>(n); ++v) {
      const auto& w = net.wiring(v);
      if (std::find(w.begin(), w.end(), 2) != w.end()) ++in_degree;
    }
    return std::pair<int, double>{in_degree,
                                  util::Summary::of(net.node_costs()).mean};
  };
  const auto [unaudited_degree, unaudited_cost] = run(false);
  const auto [audited_degree, audited_cost] = run(true);
  // With audits the cheater is at least as attractive as without.
  EXPECT_GE(audited_degree, unaudited_degree);
  // And the overall cost does not get worse.
  EXPECT_LE(audited_cost, unaudited_cost * 1.1);
}

TEST(PreferenceSkewTest, NegativeExponentRejected) {
  Environment env(10, 71);
  OverlayConfig config;
  config.policy = Policy::kBestResponse;
  config.k = 3;
  config.preference_zipf_exponent = -1.0;
  EXPECT_THROW(EgoistNetwork(env, config), std::invalid_argument);
}

TEST(PreferenceSkewTest, BrStillDominatesUnderSkew) {
  const std::size_t n = 24;
  const std::uint64_t seed = 73;
  auto run = [&](Policy policy) {
    Environment env(n, seed);
    OverlayConfig config;
    config.policy = policy;
    config.k = 3;
    config.seed = seed;
    config.preference_zipf_exponent = 1.2;
    EgoistNetwork net(env, config);
    for (int e = 0; e < 6; ++e) {
      env.advance(60.0);
      net.run_epoch();
    }
    return util::Summary::of(net.node_costs()).mean;
  };
  EXPECT_LT(run(Policy::kBestResponse), run(Policy::kRandom));
  EXPECT_LT(run(Policy::kBestResponse), run(Policy::kRegular));
}

TEST(PreferenceSkewTest, SkewAmplifiesBrAdvantage) {
  // Footnote 8: uniform preferences are conservative for BR — with skewed
  // traffic BR spends links on the destinations that matter; k-Regular
  // cannot. Compare the BR : k-Regular cost ratio with and without skew.
  const std::size_t n = 24;
  const std::uint64_t seed = 75;
  auto ratio = [&](double exponent) {
    auto run = [&](Policy policy) {
      Environment env(n, seed);
      OverlayConfig config;
      config.policy = policy;
      config.k = 3;
      config.seed = seed;
      config.preference_zipf_exponent = exponent;
      EgoistNetwork net(env, config);
      for (int e = 0; e < 6; ++e) {
        env.advance(60.0);
        net.run_epoch();
      }
      return util::Summary::of(net.node_costs()).mean;
    };
    return run(Policy::kRegular) / run(Policy::kBestResponse);
  };
  // Allow a little noise slack; the skewed advantage must not shrink much.
  EXPECT_GT(ratio(1.5), ratio(0.0) * 0.9);
}

TEST(AuditTest, AuditsIgnoredForBandwidthMetric) {
  Environment env(12, 69);
  OverlayConfig config;
  config.policy = Policy::kBestResponse;
  config.metric = Metric::kBandwidth;
  config.k = 3;
  config.seed = 69;
  config.enable_audits = true;  // no coordinate system for bandwidth
  EgoistNetwork net(env, config);
  EXPECT_NO_THROW(net.run_epoch());
}

}  // namespace
}  // namespace egoist::overlay
