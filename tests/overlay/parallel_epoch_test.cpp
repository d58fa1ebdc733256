// Determinism stress suite for the parallel BR epoch pipeline.
//
// The pipeline's contract (overlay/epoch_engine.hpp): in §5 scale mode
// the wiring trajectory is a pure function of the deployment — the worker
// count only changes wall-clock time, workers 0 (the pipeline evaluated
// inline) included. This suite pins that down by replaying the same seed
// at workers in {0, 1, 2, 4, 8} across the configuration matrix — BR and
// HybridBR, delay and bandwidth, dense and procedural underlay backends,
// synchronized and staggered-with-churn schedules — and requiring
// bit-identical wiring trajectories, online sets, scores, and re-wiring
// counts at every epoch. Dense mode keeps the sequential epoch only, so
// a dense deploy at workers >= 1 is rejected.
#include <gtest/gtest.h>

#include <string>

#include "determinism_harness.hpp"

namespace egoist::testing {
namespace {

using host::OverlaySpec;
using overlay::Metric;
using overlay::Policy;

constexpr int kWorkerCounts[] = {0, 1, 2, 4, 8};

/// §5 scale mode on the default 14-node host: each evaluation samples 6
/// candidates and scores them against 8 landmarks.
OverlaySpec scale_spec(Policy policy, Metric metric) {
  overlay::OverlayConfig config;
  config.policy = policy;
  config.metric = metric;
  config.k = 3;
  config.seed = 99;
  config.br_sample = 6;
  config.br_landmarks = 8;
  if (policy == Policy::kHybridBR) config.donated_links = 2;
  return OverlaySpec(config);
}

overlay::EnvironmentConfig env_config(net::UnderlayKind kind) {
  overlay::EnvironmentConfig env;
  env.underlay = kind;
  if (kind == net::UnderlayKind::kProcedural) env.coord_warmup_rounds = 10;
  return env;
}

std::string underlay_label(net::UnderlayKind kind) {
  return kind == net::UnderlayKind::kDense ? "dense" : "procedural";
}

churn::ChurnTrace make_trace(std::size_t nodes, int epochs) {
  churn::ChurnConfig config;
  config.mean_on_s = 150.0;
  config.mean_off_s = 50.0;
  config.initial_on_fraction = 0.8;
  return churn::ChurnTrace(nodes, epochs * 60.0, 77, config);
}

/// Records the case at every worker count in kWorkerCounts and requires
/// each trajectory to equal the workers=0 one, bit for bit.
void expect_worker_count_invariance(DeterminismCase c,
                                    const std::string& label) {
  c.spec.workers(0);
  const Trajectory reference = record_trajectory(c);
  for (int workers : kWorkerCounts) {
    if (workers == 0) continue;
    DeterminismCase parallel = c;
    parallel.spec.workers(workers);
    expect_same_trajectory(reference, record_trajectory(parallel),
                           label + " @ workers=" + std::to_string(workers));
  }
}

TEST(ParallelEpochTest, SynchronizedEpochsAreWorkerCountInvariant) {
  for (Policy policy : {Policy::kBestResponse, Policy::kHybridBR}) {
    for (const auto kind :
         {net::UnderlayKind::kDense, net::UnderlayKind::kProcedural}) {
      DeterminismCase c;
      c.env = env_config(kind);
      c.spec = scale_spec(policy, Metric::kDelayPing);
      expect_worker_count_invariance(
          c, std::string(to_string(policy)) + " / " + underlay_label(kind));
    }
  }
}

TEST(ParallelEpochTest, StaggeredChurnedEpochsAreWorkerCountInvariant) {
  // The staggered T/n scheduler evaluates nodes one at a time and churn
  // replays between slots; neither goes through the parallel pipeline, so
  // worker-count invariance must hold trivially — this guards against the
  // pipeline ever leaking into the per-node path.
  for (Policy policy : {Policy::kBestResponse, Policy::kHybridBR}) {
    for (const auto kind :
         {net::UnderlayKind::kDense, net::UnderlayKind::kProcedural}) {
      DeterminismCase c;
      c.epochs = 3;
      c.env = env_config(kind);
      c.spec = scale_spec(policy, Metric::kDelayPing)
                   .epoch_period(60.0)
                   .staggered(0xBDu)
                   .churn(make_trace(c.nodes, c.epochs));
      expect_worker_count_invariance(
          c, std::string("staggered ") + to_string(policy) + " / " +
                 underlay_label(kind));
    }
  }
}

TEST(ParallelEpochTest, SynchronizedChurnIsWorkerCountInvariant) {
  // Synchronized epochs with a churn trace: membership flips (which stay
  // sequential and consume RNG) interleave with pipeline epochs.
  DeterminismCase c;
  c.epochs = 4;
  c.spec = scale_spec(Policy::kHybridBR, Metric::kDelayPing)
               .epoch_period(60.0)
               .churn(make_trace(c.nodes, c.epochs));
  expect_worker_count_invariance(c, "synchronized churn HybridBR");
}

TEST(ParallelEpochTest, BandwidthMetricIsWorkerCountInvariant) {
  DeterminismCase c;
  c.spec = scale_spec(Policy::kBestResponse, Metric::kBandwidth);
  expect_worker_count_invariance(c, "BR bandwidth");
}

TEST(ParallelEpochTest, ScaleModeIsWorkerCountInvariant) {
  // The same contract on the sparse measurement plane (threshold 0), at a
  // larger n with a wider sample and landmark set.
  for (const auto kind :
       {net::UnderlayKind::kDense, net::UnderlayKind::kProcedural}) {
    DeterminismCase c;
    c.nodes = 24;
    c.epochs = 3;
    c.env = env_config(kind);
    c.env.sparse_plane_threshold = 0;
    overlay::OverlayConfig config;
    config.policy = Policy::kBestResponse;
    config.k = 4;
    config.seed = 5;
    config.br_sample = 8;
    config.br_landmarks = 12;
    c.spec = OverlaySpec(config);
    expect_worker_count_invariance(c, "scale " + underlay_label(kind));
  }
}

TEST(ParallelEpochTest, WorkersOutsideScaleModeAreRejected) {
  // Dense mode keeps the sequential epoch only, so no dense deploy may ask
  // for workers: every policy throws, naming the knob. Scale mode takes
  // them.
  overlay::Environment env(12, 1);
  for (Policy policy : {Policy::kBestResponse, Policy::kHybridBR,
                        Policy::kRandom, Policy::kClosest, Policy::kRegular,
                        Policy::kFullMesh}) {
    overlay::OverlayConfig config;
    config.policy = policy;
    config.k = 3;
    config.donated_links = 2;
    config.epoch_workers = 1;
    try {
      overlay::EgoistNetwork network(env, config);
      ADD_FAILURE() << to_string(policy) << " deployed dense at workers 1";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("epoch_workers"),
                std::string::npos)
          << e.what();
    }
  }
  overlay::OverlayConfig scale;
  scale.k = 3;
  scale.br_sample = 4;
  scale.br_landmarks = 4;
  scale.epoch_workers = 1;
  overlay::EgoistNetwork network(env, scale);
  env.advance(60.0);
  network.run_epoch();
  EXPECT_GT(network.total_evaluations(), 0u);
}

TEST(ParallelEpochTest, PipelineWiringsRespectDegreeAndMembership) {
  DeterminismCase c;
  c.spec = scale_spec(Policy::kHybridBR, Metric::kDelayPing).workers(4);
  const auto trajectory = record_trajectory(c);
  for (const auto& epoch : trajectory.wirings) {
    for (const auto& wiring : epoch) {
      EXPECT_LE(wiring.size(), 3u);
      EXPECT_FALSE(wiring.empty());
    }
  }
  // The pipeline actually re-wires (the runs are not vacuous).
  EXPECT_GT(trajectory.rewirings.back(), 0u);
}

TEST(ParallelEpochTest, NegativeWorkerCountIsRejected) {
  overlay::Environment env(12, 1);
  overlay::OverlayConfig config;
  config.k = 3;
  config.epoch_workers = -1;
  EXPECT_THROW(overlay::EgoistNetwork(env, config), std::invalid_argument);
}

}  // namespace
}  // namespace egoist::testing
