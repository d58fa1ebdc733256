// Golden trajectories for the residual-path engine.
//
// Best response is computed over the residual graph G_{-i}. The CSR
// graph::PathEngine serves it as an exclusion view over one shared
// snapshot; it replaced a residual-copy implementation (materialize G_{-i}
// as a Digraph, run graph::all_pairs_* on it). Both implementations ran
// side by side until they had been shown to walk bit-identical wiring
// trajectories for every Policy x Metric combination, through churn,
// audits, free riders, skewed preferences, immediate re-wiring and every
// host schedule. The digests below (egoist::testing::digest: wirings,
// online sets, score bit patterns, re-wiring counts) were recorded while
// the two still agreed; the engine-only build must keep reproducing them.
// A digest that moves means the trajectory moved — a behaviour change,
// not a refactor.
//
// The scale-mode digests (§5 sampled candidates x landmark destinations,
// procedural underlay, churn; full recompute and incremental exact /
// tolerance modes) pin that trajectory family the same way: a faster
// candidate sampler or search must keep reproducing them. Scale mode has
// one epoch schedule, so each of its epoch digests holds at every worker
// count.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <ios>
#include <sstream>
#include <string>

#include "determinism_harness.hpp"
#include "overlay/network.hpp"

namespace egoist::overlay {
namespace {

using egoist::testing::digest;
using egoist::testing::Trajectory;

OverlayConfig make_config(Policy policy, Metric metric) {
  OverlayConfig config;
  config.policy = policy;
  config.metric = metric;
  config.k = 3;
  config.donated_links = 2;
  config.seed = 99;
  return config;
}

/// Drives one overlay directly (n = 14, substrate seed 404): the bootstrap
/// state, then `epochs` epochs 60 s apart; with churn, node 3 leaves before
/// epoch 2 and rejoins before epoch 4. Scores are the metric's own plus
/// the efficiencies.
Trajectory record_network(const OverlayConfig& config, int epochs,
                          bool with_churn) {
  const std::size_t n = 14;
  Environment env(n, 404);
  EgoistNetwork net(env, config);
  Trajectory out;
  const auto record = [&] {
    std::vector<std::vector<NodeId>> wirings;
    for (std::size_t v = 0; v < n; ++v) {
      const auto w = net.wiring(static_cast<int>(v));
      wirings.emplace_back(w.begin(), w.end());
    }
    out.wirings.push_back(std::move(wirings));
    out.online.push_back(net.online_nodes());
    auto scores = config.metric == Metric::kBandwidth
                      ? net.node_bandwidth_scores()
                      : net.node_costs();
    const auto efficiencies = net.node_efficiencies();
    scores.insert(scores.end(), efficiencies.begin(), efficiencies.end());
    out.costs.push_back(std::move(scores));
    out.rewirings.push_back(net.total_rewirings());
  };
  record();
  for (int epoch = 0; epoch < epochs; ++epoch) {
    if (with_churn && epoch == 2) net.set_online(3, false);
    if (with_churn && epoch == 4) net.set_online(3, true);
    env.advance(60.0);
    net.run_epoch();
    record();
  }
  return out;
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value;
  return out.str();
}

void expect_digest(const std::string& label, std::uint64_t expected,
                   const std::function<Trajectory()>& record) {
  EXPECT_EQ(hex(digest(record())), hex(expected))
      << label << ": trajectory no longer matches its recorded digest";
}

/// The scale-mode epoch's worker counts: `workers` only sets speed there,
/// so one digest must hold at each.
constexpr int kScaleWorkers[] = {0, 1, 2, 4};

void expect_digest_at_every_worker_count(
    const std::string& label, std::uint64_t expected,
    egoist::testing::DeterminismCase c) {
  for (const int workers : kScaleWorkers) {
    c.spec.workers(workers);
    expect_digest(label + " / workers " + std::to_string(workers), expected,
                  [&] { return egoist::testing::record_trajectory(c); });
  }
}

TEST(GoldenTrajectoryTest, EveryPolicyMetricCombination) {
  struct Golden {
    Policy policy;
    Metric metric;
    std::uint64_t digest;
  };
  const Golden kGolden[] = {
      {Policy::kBestResponse, Metric::kDelayPing, 0xd8c345b71927428full},
      {Policy::kBestResponse, Metric::kDelayCoords, 0x266727d354814b86ull},
      {Policy::kBestResponse, Metric::kNodeLoad, 0x71328b5d3ef855fdull},
      {Policy::kBestResponse, Metric::kBandwidth, 0xfe336533dd0b4284ull},
      {Policy::kHybridBR, Metric::kDelayPing, 0x8121a9158800b194ull},
      {Policy::kHybridBR, Metric::kDelayCoords, 0xf76ee0e9c99fccfcull},
      {Policy::kHybridBR, Metric::kNodeLoad, 0x48ba92ab9f0fe26full},
      {Policy::kHybridBR, Metric::kBandwidth, 0x827fbde4106a6292ull},
      {Policy::kRandom, Metric::kDelayPing, 0xe918a81d400e4113ull},
      {Policy::kRandom, Metric::kDelayCoords, 0xf9f94df633ae8717ull},
      {Policy::kRandom, Metric::kNodeLoad, 0x2caf2bee25c2117cull},
      {Policy::kRandom, Metric::kBandwidth, 0x4cf3f25218e4ff07ull},
      {Policy::kClosest, Metric::kDelayPing, 0x1676b052ba73dbe6ull},
      {Policy::kClosest, Metric::kDelayCoords, 0x7bd7c593f9965241ull},
      {Policy::kClosest, Metric::kNodeLoad, 0x92a10911826e9594ull},
      {Policy::kClosest, Metric::kBandwidth, 0x60e5b247c3204b99ull},
      {Policy::kRegular, Metric::kDelayPing, 0x31de9d6ef58d7121ull},
      {Policy::kRegular, Metric::kDelayCoords, 0x6757349f9fa338fbull},
      {Policy::kRegular, Metric::kNodeLoad, 0x813c3adb3e561cd6ull},
      {Policy::kRegular, Metric::kBandwidth, 0x412eca9222b59674ull},
      {Policy::kFullMesh, Metric::kDelayPing, 0x9199f4435c150ec1ull},
      {Policy::kFullMesh, Metric::kDelayCoords, 0x13bf509f25f38951ull},
      {Policy::kFullMesh, Metric::kNodeLoad, 0x1f27f7f4bdb48bcfull},
      {Policy::kFullMesh, Metric::kBandwidth, 0xa58da29537ebc1caull},
  };
  ASSERT_EQ(std::size(kGolden), 24u);
  for (const auto& g : kGolden) {
    expect_digest(std::string(to_string(g.policy)) + " / " +
                      to_string(g.metric),
                  g.digest, [&] {
                    return record_network(make_config(g.policy, g.metric), 6,
                                          true);
                  });
  }
}

TEST(GoldenTrajectoryTest, AuditedDecisionGraph) {
  auto config = make_config(Policy::kBestResponse, Metric::kDelayPing);
  config.enable_audits = true;
  config.cheaters = {2};
  expect_digest("BR audited + cheater", 0x4d02c1c0cd7ba5c4ull,
                [&] { return record_network(config, 6, true); });
}

TEST(GoldenTrajectoryTest, SkewedPreferences) {
  auto config = make_config(Policy::kBestResponse, Metric::kDelayCoords);
  config.preference_zipf_exponent = 1.0;
  expect_digest("BR zipf preference", 0xde90dd59f16fb752ull,
                [&] { return record_network(config, 6, true); });
}

TEST(GoldenTrajectoryTest, ImmediateRewireMode) {
  auto config = make_config(Policy::kHybridBR, Metric::kDelayPing);
  config.rewire_mode = RewireMode::kImmediate;
  expect_digest("HybridBR immediate rewire", 0xdb228ed3eb995965ull,
                [&] { return record_network(config, 6, true); });
}

TEST(GoldenTrajectoryTest, ScoresWithoutChurn) {
  expect_digest("BR steady scores", 0xdcc6f33948e44880ull, [] {
    return record_network(make_config(Policy::kBestResponse, Metric::kDelayPing),
                          3, false);
  });
}

TEST(GoldenTrajectoryTest, HostSchedules) {
  // The host's synchronized and staggered-with-churn dense schedules,
  // recorded through the shared trajectory harness. The scale-mode
  // pipeline's host schedule is pinned by ScaleModeOnProceduralUnderlay.
  churn::ChurnConfig churn_config;
  churn_config.mean_on_s = 150.0;
  churn_config.mean_off_s = 50.0;
  churn_config.initial_on_fraction = 0.8;
  const churn::ChurnTrace trace(14, 3 * 60.0, 77, churn_config);

  struct Golden {
    const char* schedule;
    std::uint64_t digest;
  };
  const Golden kGolden[] = {
      {"synchronized", 0x91a9cceebf638e77ull},
      {"staggered", 0x9ea59e759bc18e7full},
  };
  for (const auto& g : kGolden) {
    egoist::testing::DeterminismCase c;
    c.epochs = 3;
    c.spec = host::OverlaySpec(
        make_config(Policy::kBestResponse, Metric::kDelayPing));
    const std::string schedule = g.schedule;
    if (schedule == "staggered") {
      c.spec.epoch_period(60.0).staggered(0xBDu).churn(trace);
    }
    expect_digest("host schedule / " + schedule, g.digest,
                  [&] { return egoist::testing::record_trajectory(c); });
  }
}

/// §5 scale mode under churn: n = 96, k = 4, each evaluation samples 8
/// candidates and scores them against 8 landmark destinations, over 6
/// synchronized epochs that replay an ON/OFF trace.
egoist::testing::DeterminismCase scale_case(
    Policy policy, net::UnderlayKind underlay,
    Metric metric = Metric::kDelayPing) {
  auto config = make_config(policy, metric);
  config.k = 4;
  config.br_sample = 8;
  config.br_landmarks = 8;
  churn::ChurnConfig churn_config;
  churn_config.mean_on_s = 600.0;
  churn_config.mean_off_s = 200.0;
  churn_config.initial_on_fraction = 0.8;

  egoist::testing::DeterminismCase c;
  c.nodes = 96;
  c.epochs = 6;
  c.env.underlay = underlay;
  c.env.coord_warmup_rounds = 10;
  c.spec = host::OverlaySpec(config).churn(
      churn::ChurnTrace(c.nodes, c.epochs * 60.0, 77, churn_config));
  return c;
}

TEST(GoldenTrajectoryTest, ScaleModeOnProceduralUnderlay) {
  struct Golden {
    Policy policy;
    const char* mode;  ///< full | exact (drift 0) | tolerance (drift 0.05)
    std::uint64_t digest;
  };
  // On this noisy plane exact mode marks every node each epoch, so its
  // digests equal the full recompute's: the exact-mode contract. HybridBR's
  // tolerance mode keeps every node dirty here too.
  const Golden kGolden[] = {
      {Policy::kBestResponse, "full", 0x0dc63cc3b4620941ull},
      {Policy::kBestResponse, "exact", 0x0dc63cc3b4620941ull},
      {Policy::kBestResponse, "tolerance", 0xa5bf2db899c7193cull},
      {Policy::kHybridBR, "full", 0xd8a89346342d76a2ull},
      {Policy::kHybridBR, "exact", 0xd8a89346342d76a2ull},
      {Policy::kHybridBR, "tolerance", 0xd8a89346342d76a2ull},
  };
  for (const auto& g : kGolden) {
    auto c = scale_case(g.policy, net::UnderlayKind::kProcedural);
    const std::string mode = g.mode;
    if (mode == "exact") c.spec.incremental(true, 0.0);
    if (mode == "tolerance") c.spec.incremental(true, 0.05);
    expect_digest_at_every_worker_count(std::string("scale mode / ") +
                                            to_string(g.policy) + " / " + mode,
                                        g.digest, c);
  }
}

TEST(GoldenTrajectoryTest, ScaleModeStaggeredAndDense) {
  auto staggered = scale_case(Policy::kBestResponse,
                              net::UnderlayKind::kProcedural);
  staggered.spec.epoch_period(60.0).staggered(0xBDu);
  expect_digest_at_every_worker_count("scale mode / BR staggered",
                                      0xa957f8825ea371fbull, staggered);

  const auto dense = scale_case(Policy::kBestResponse,
                                net::UnderlayKind::kDense);
  expect_digest("scale mode / BR dense underlay", 0x9bba3f490cf5cebeull,
                [&] { return egoist::testing::record_trajectory(dense); });
}

TEST(GoldenTrajectoryTest, ScaleModeMetricsAndRepairs) {
  // The scale-mode paths the delay(ping) digests above leave open: the
  // widest-path landmarks of bandwidth (unmeasured value 0, no penalty) and
  // the load metric, at every worker count; the staggered schedule
  // in tolerance mode (drift probes between turns); and immediate
  // re-wiring, whose repairs refresh the landmarks outside an epoch.
  struct Golden {
    Metric metric;
    std::uint64_t digest;
  };
  const Golden kGolden[] = {
      {Metric::kBandwidth, 0x30197d934bef9bd2ull},
      {Metric::kNodeLoad, 0xd468e27baf0ae590ull},
  };
  for (const auto& g : kGolden) {
    expect_digest_at_every_worker_count(
        std::string("scale mode / BR / ") + to_string(g.metric), g.digest,
        scale_case(Policy::kBestResponse, net::UnderlayKind::kProcedural,
                   g.metric));
  }

  auto staggered = scale_case(Policy::kBestResponse,
                              net::UnderlayKind::kProcedural);
  staggered.spec.epoch_period(60.0).staggered(0xBDu).incremental(true, 0.05);
  expect_digest_at_every_worker_count("scale mode / BR staggered tolerance",
                                      0x379499a0d86ee799ull, staggered);

  auto immediate = scale_case(Policy::kBestResponse,
                              net::UnderlayKind::kProcedural);
  immediate.spec.rewire_mode(RewireMode::kImmediate);
  expect_digest_at_every_worker_count("scale mode / BR immediate rewire",
                                      0x04ec296070af2e77ull, immediate);
}

}  // namespace
}  // namespace egoist::overlay
