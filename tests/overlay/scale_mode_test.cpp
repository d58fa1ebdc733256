// §5 scale-mode contract tests: sampled BR epochs are deterministic,
// respect k, keep the measurement plane at k + k2 + br_sample EWMAs a node
// under churn, work on both backends and in the staggered host mode, and
// the config guards reject unsupported combinations.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "host/overlay_host.hpp"
#include "util/rng.hpp"

namespace egoist::overlay {
namespace {

EnvironmentConfig scale_env(net::UnderlayKind kind) {
  EnvironmentConfig config;
  config.underlay = kind;
  config.sparse_plane_threshold = 0;
  config.coord_warmup_rounds = 5;
  return config;
}

OverlayConfig scale_config(Policy policy = Policy::kBestResponse,
                           Metric metric = Metric::kDelayPing) {
  OverlayConfig config;
  config.policy = policy;
  config.metric = metric;
  config.k = 4;
  config.seed = 5;
  config.br_sample = 8;
  config.br_landmarks = 12;
  return config;
}

TEST(ScaleModeTest, RejectsUnsupportedCombinations) {
  Environment env(16, 1, scale_env(net::UnderlayKind::kDense));
  auto bad = scale_config(Policy::kClosest);
  EXPECT_THROW(EgoistNetwork(env, bad), std::invalid_argument);
  bad = scale_config();
  bad.br_landmarks = 0;
  EXPECT_THROW(EgoistNetwork(env, bad), std::invalid_argument);
  bad = scale_config();
  bad.preference_zipf_exponent = 1.0;
  EXPECT_THROW(EgoistNetwork(env, bad), std::invalid_argument);
  bad = scale_config();
  bad.enable_audits = true;
  EXPECT_THROW(EgoistNetwork(env, bad), std::invalid_argument);
}

TEST(ScaleModeTest, EpochsAreDeterministicAndRespectK) {
  for (const auto kind :
       {net::UnderlayKind::kDense, net::UnderlayKind::kProcedural}) {
    auto run = [&](int epochs) {
      Environment env(40, 7, scale_env(kind));
      EgoistNetwork net(env, scale_config());
      for (int e = 0; e < epochs; ++e) {
        env.advance(60.0);
        net.run_epoch();
      }
      std::vector<std::vector<NodeId>> wirings;
      for (int v = 0; v < 40; ++v) {
        const auto wiring = net.wiring(v);
        wirings.emplace_back(wiring.begin(), wiring.end());
      }
      return std::make_pair(wirings, net.total_rewirings());
    };
    const auto [wirings_a, rewired_a] = run(3);
    const auto [wirings_b, rewired_b] = run(3);
    EXPECT_EQ(wirings_a, wirings_b);
    EXPECT_EQ(rewired_a, rewired_b);
    for (const auto& wiring : wirings_a) {
      EXPECT_LE(wiring.size(), 4u);
      EXPECT_FALSE(wiring.empty());
    }
  }
}

TEST(ScaleModeTest, MeasurementStaysWithinSampledPairs) {
  // Every node probes at most its pool (sample + committed links) per
  // evaluation: the sparse plane must stay far below n^2.
  constexpr std::size_t kN = 120;
  Environment env(kN, 11, scale_env(net::UnderlayKind::kProcedural));
  auto config = scale_config();
  EgoistNetwork net(env, config);
  env.advance(60.0);
  net.run_epoch();
  ASSERT_TRUE(env.sparse_plane());
  // Bootstrap (two join passes) + one epoch: <= ~3 pools per node, each
  // pool at most sample + k links (plus their reverse probes is not a
  // thing — pings are directed).
  const std::size_t per_node_budget = 3 * (config.br_sample + config.k + 1);
  EXPECT_LT(env.probed_pairs(), kN * per_node_budget);
  EXPECT_LT(env.probed_pairs(), kN * (kN - 1) / 2);
}

TEST(ScaleModeTest, PlaneStaysBoundedUnderChurn) {
  // Each measurement cuts the prober's row to its links and its pool, so
  // under joins and leaves the plane never holds more than
  // n (k + k2 + br_sample) EWMAs, and its rows, allocated at the first
  // ping, never reallocate. Workers 0 and 2 walk one trajectory.
  constexpr std::size_t kN = 120;
  constexpr int kEpochs = 32;
  for (const auto policy : {Policy::kBestResponse, Policy::kHybridBR}) {
    auto config = scale_config(policy);
    config.donated_links = 2;
    const std::size_t k2 = policy == Policy::kHybridBR ? 2 : 0;
    const std::size_t bound = kN * (config.k + k2 + config.br_sample);
    Environment env0(kN, 31, scale_env(net::UnderlayKind::kProcedural));
    Environment env2(kN, 31, scale_env(net::UnderlayKind::kProcedural));
    config.epoch_workers = 0;
    EgoistNetwork net0(env0, config);
    config.epoch_workers = 2;
    EgoistNetwork net2(env2, config);
    util::Rng churn(19);
    std::size_t plane_bytes = 0;
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      const std::string label =
          std::string(to_string(policy)) + " epoch " + std::to_string(epoch);
      // Every epoch ~6 nodes flip: leaves, and rejoins of earlier leavers.
      for (int flip = 0; flip < 6; ++flip) {
        const int v = static_cast<int>(churn.uniform_int(0, kN - 1));
        const bool online = !net0.is_online(v);
        if (!online && net0.online_count() <= kN / 2) continue;
        net0.set_online(v, online);
        net2.set_online(v, online);
      }
      env0.advance(60.0);
      env2.advance(60.0);
      net0.run_epoch();
      net2.run_epoch();
      EXPECT_LE(env0.probed_pairs(), bound) << label;
      if (epoch == 0) plane_bytes = env0.plane_memory_bytes();
      EXPECT_EQ(env0.plane_memory_bytes(), plane_bytes) << label;
      EXPECT_EQ(env2.probed_pairs(), env0.probed_pairs()) << label;
      for (int v = 0; v < static_cast<int>(kN); ++v) {
        const auto w0 = net0.wiring(v);
        const auto w2 = net2.wiring(v);
        ASSERT_TRUE(std::equal(w0.begin(), w0.end(), w2.begin(), w2.end()))
            << label << " node " << v;
      }
    }
    EXPECT_LT(net0.online_count(), kN);
  }
}

TEST(ScaleModeTest, HybridBRKeepsDonatedBackboneLinks) {
  Environment env(30, 3, scale_env(net::UnderlayKind::kProcedural));
  auto config = scale_config(Policy::kHybridBR);
  config.donated_links = 2;
  EgoistNetwork net(env, config);
  env.advance(60.0);
  net.run_epoch();
  for (int v = 0; v < 30; ++v) {
    EXPECT_EQ(net.donated(v).size(), 2u);
    for (const NodeId d : net.donated(v)) {
      const auto& wiring = net.wiring(v);
      EXPECT_NE(std::find(wiring.begin(), wiring.end(), d), wiring.end())
          << "donated link " << d << " missing from node " << v;
    }
  }
}

TEST(ScaleModeTest, BandwidthMetricRunsOnWidestLandmarks) {
  Environment env(24, 13, scale_env(net::UnderlayKind::kProcedural));
  EgoistNetwork net(env, scale_config(Policy::kBestResponse,
                                      Metric::kBandwidth));
  env.advance(60.0);
  EXPECT_NO_THROW(net.run_epoch());
  for (int v = 0; v < 24; ++v) EXPECT_FALSE(net.wiring(v).empty());
}

TEST(ScaleModeTest, RunNodeWorksOutsideEpochs) {
  Environment env(24, 17, scale_env(net::UnderlayKind::kProcedural));
  EgoistNetwork net(env, scale_config());
  env.advance(60.0);
  EXPECT_NO_THROW(net.run_node(5));
  // Churn paths (set_online + immediate repair) stay functional.
  net.set_online(5, false);
  net.set_online(5, true);
  EXPECT_TRUE(net.is_online(5));
}

TEST(ScaleModeTest, BoundSkipsSearchesInScaleModeOnly) {
  // Scale mode keeps a wiring without a search when the candidate pool's
  // own cost clears no BR(eps) threshold: its one epoch counts such turns
  // the same at any worker count, workers 0 included, and every counted
  // skip is an evaluation.
  const auto scale_run = [](int workers) {
    Environment env(60, 9, scale_env(net::UnderlayKind::kProcedural));
    auto config = scale_config();
    config.epoch_workers = workers;
    EgoistNetwork net(env, config);
    for (int e = 0; e < 4; ++e) {
      env.advance(60.0);
      net.run_epoch();
    }
    EXPECT_GT(net.total_searches_skipped(), 0u) << "workers " << workers;
    EXPECT_LE(net.total_searches_skipped(), net.total_evaluations())
        << "workers " << workers;
    return net.total_searches_skipped();
  };
  const auto inline_skips = scale_run(0);
  EXPECT_EQ(scale_run(1), inline_skips);
  EXPECT_EQ(scale_run(2), inline_skips);

  // Dense mode never bounds: its candidates are every online node.
  Environment env(30, 9);
  auto config = scale_config();
  config.br_sample = 0;
  EgoistNetwork net(env, config);
  for (int e = 0; e < 4; ++e) {
    env.advance(60.0);
    net.run_epoch();
  }
  EXPECT_GT(net.total_evaluations(), 0u);
  EXPECT_EQ(net.total_searches_skipped(), 0u);
}

TEST(ScaleModeTest, StaggeredHostDriverCompletesEpochs) {
  host::OverlayHost host(20, 23, scale_env(net::UnderlayKind::kProcedural));
  auto spec = host::OverlaySpec(scale_config())
                  .epoch_period(60.0)
                  .staggered(/*order_seed=*/3);
  const auto overlay = host.deploy(spec);
  host.run_epochs(overlay, 2);
  EXPECT_EQ(host.epochs_run(overlay), 2);
  const auto snapshot = host.snapshot(overlay);
  for (int v = 0; v < 20; ++v) EXPECT_FALSE(snapshot.wiring(v).empty());
}

}  // namespace
}  // namespace egoist::overlay
