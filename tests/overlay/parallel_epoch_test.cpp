// Determinism stress suite for the parallel BR epoch pipeline.
//
// The pipeline's contract (overlay/epoch_engine.hpp): with epoch_workers
// >= 1, the wiring trajectory is a pure function of the deployment — the
// worker count only changes wall-clock time; in §5 scale mode workers 0
// (the pipeline evaluated inline) joins them. This suite pins that down
// by replaying the same seed at workers in {1, 2, 4, 8} (and 0 in scale
// mode) across the full configuration matrix — BR and HybridBR, dense and
// procedural underlay backends, synchronized and staggered-with-churn
// schedules, dense and §5 sampled scale mode — and requiring bit-identical
// wiring trajectories, online sets, scores, and re-wiring counts at every
// epoch.
#include <gtest/gtest.h>

#include <span>
#include <string>

#include "determinism_harness.hpp"

namespace egoist::testing {
namespace {

using host::OverlaySpec;
using overlay::Metric;
using overlay::Policy;

constexpr int kWorkerCounts[] = {1, 2, 4, 8};
/// Scale mode runs the pipeline at workers 0 too, evaluating inline.
constexpr int kScaleWorkerCounts[] = {0, 1, 2, 4, 8};

OverlaySpec base_spec(Policy policy, Metric metric) {
  OverlaySpec spec;
  spec.policy(policy).metric(metric).k(3).seed(99);
  if (policy == Policy::kHybridBR) spec.donated_links(2);
  return spec;
}

overlay::EnvironmentConfig env_config(net::UnderlayKind kind) {
  overlay::EnvironmentConfig env;
  env.underlay = kind;
  if (kind == net::UnderlayKind::kProcedural) env.coord_warmup_rounds = 10;
  return env;
}

churn::ChurnTrace make_trace(std::size_t nodes, int epochs) {
  churn::ChurnConfig config;
  config.mean_on_s = 150.0;
  config.mean_off_s = 50.0;
  config.initial_on_fraction = 0.8;
  return churn::ChurnTrace(nodes, epochs * 60.0, 77, config);
}

/// Records the case at every worker count in `counts` and requires each
/// trajectory to equal the workers=1 one, bit for bit.
void expect_worker_count_invariance(
    DeterminismCase c, const std::string& label,
    std::span<const int> counts = kWorkerCounts) {
  c.spec.workers(1);
  const Trajectory reference = record_trajectory(c);
  for (int workers : counts) {
    if (workers == 1) continue;
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
      c.spec = base_spec(policy, Metric::kDelayPing);
      const std::string label = std::string(to_string(policy)) + " / " +
                                (kind == net::UnderlayKind::kDense
                                     ? "dense"
                                     : "procedural");
      expect_worker_count_invariance(c, label);
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
      c.spec = base_spec(policy, Metric::kDelayPing)
                   .epoch_period(60.0)
                   .staggered(0xBDu)
                   .churn(make_trace(c.nodes, c.epochs));
      const std::string label = std::string("staggered ") +
                                to_string(policy) + " / " +
                                (kind == net::UnderlayKind::kDense
                                     ? "dense"
                                     : "procedural");
      expect_worker_count_invariance(c, label);
    }
  }
}

TEST(ParallelEpochTest, SynchronizedChurnIsWorkerCountInvariant) {
  // Synchronized epochs with a churn trace: membership flips (which stay
  // sequential and consume RNG) interleave with pipeline epochs.
  DeterminismCase c;
  c.epochs = 4;
  c.spec = base_spec(Policy::kHybridBR, Metric::kDelayPing)
               .epoch_period(60.0)
               .churn(make_trace(c.nodes, c.epochs));
  expect_worker_count_invariance(c, "synchronized churn HybridBR");
}

TEST(ParallelEpochTest, BandwidthMetricIsWorkerCountInvariant) {
  DeterminismCase c;
  c.spec = base_spec(Policy::kBestResponse, Metric::kBandwidth);
  expect_worker_count_invariance(c, "BR bandwidth");
}

TEST(ParallelEpochTest, ScaleModeIsWorkerCountInvariant) {
  // §5 sampled scale mode: the snapshot phase draws every sample pool and
  // landmark set sequentially, and scale mode runs the pipeline at workers
  // 0 too (evaluating inline), so workers 0 must replay it as well.
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
    expect_worker_count_invariance(
        c, kind == net::UnderlayKind::kDense ? "scale dense"
                                             : "scale procedural",
        kScaleWorkerCounts);
  }
}

TEST(ParallelEpochTest, ZipfPreferencesAndCheatersAreWorkerCountInvariant) {
  // Skewed preferences exercise preference_of() in the workers; cheaters
  // exercise announced-cost inflation during the sequential merge.
  DeterminismCase c;
  c.epochs = 3;
  c.spec = base_spec(Policy::kBestResponse, Metric::kDelayCoords)
               .preference_zipf(1.0)
               .cheaters({2, 5}, 2.0);
  expect_worker_count_invariance(c, "BR zipf + cheaters");
}

TEST(ParallelEpochTest, NonBrPoliciesIgnoreTheWorkerKnob) {
  // The heuristics never enter the pipeline: workers=4 must replay the
  // sequential (workers=0) trajectory exactly, shuffled epoch order and
  // all.
  for (Policy policy : {Policy::kRandom, Policy::kClosest, Policy::kRegular}) {
    DeterminismCase sequential;
    sequential.epochs = 3;
    sequential.spec = base_spec(policy, Metric::kDelayPing).workers(0);
    DeterminismCase parallel = sequential;
    parallel.spec.workers(4);
    expect_same_trajectory(record_trajectory(sequential),
                           record_trajectory(parallel),
                           std::string(to_string(policy)) + " ignores workers");
  }
}

TEST(ParallelEpochTest, PipelineWiringsRespectDegreeAndMembership) {
  DeterminismCase c;
  c.spec = base_spec(Policy::kHybridBR, Metric::kDelayPing).workers(4);
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
