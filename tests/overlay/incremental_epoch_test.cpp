// Lockstep suite for the incremental dirty-set epochs.
//
// The contract (overlay/dirty_tracker.hpp): with drift thresholds disabled
// (exact mode), an incremental overlay's trajectory is bit-identical to the
// full recompute — across policies, underlay backends and host schedules —
// because a node is only skipped when its best-response inputs provably
// did not change. The suites here replay the
// same deployments with incremental on and off through the shared
// determinism harness and diff every epoch.
//
// Exact mode is exercised in two regimes: the default (noisy) measurement
// plane, where announcements never settle and the tracker degenerates to
// the full recompute, and a quiet plane (no ping jitter, no drift), where
// the overlay converges, nodes actually go clean, and skips must still be
// invisible. A separate test pins down that the quiet regime really skips —
// otherwise the identity tests would pass vacuously.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "determinism_harness.hpp"

namespace egoist::testing {
namespace {

using host::OverlaySpec;
using overlay::Metric;
using overlay::Policy;

OverlaySpec base_spec(Policy policy, Metric metric) {
  OverlaySpec spec;
  spec.policy(policy).metric(metric).k(3).seed(99);
  if (policy == Policy::kHybridBR) spec.donated_links(2);
  return spec;
}

overlay::EnvironmentConfig env_config(net::UnderlayKind kind, bool quiet) {
  overlay::EnvironmentConfig env;
  env.underlay = kind;
  if (kind == net::UnderlayKind::kProcedural) env.coord_warmup_rounds = 10;
  if (quiet) {
    // A static measurement plane: measured link values are constant, so
    // announcements settle and the dirty set can actually drain.
    env.ping_jitter_ms = 0.0;
    env.delay_drift_volatility = 0.0;
  }
  return env;
}

churn::ChurnTrace make_trace(std::size_t nodes, int epochs) {
  churn::ChurnConfig config;
  config.mean_on_s = 150.0;
  config.mean_off_s = 50.0;
  config.initial_on_fraction = 0.8;
  return churn::ChurnTrace(nodes, epochs * 60.0, 77, config);
}

/// Records the case with incremental off (the reference) and on (exact
/// mode), and requires bit-identical trajectories.
void expect_incremental_lockstep(const DeterminismCase& reference_case,
                                 const std::string& label) {
  const Trajectory reference = record_trajectory(reference_case);
  DeterminismCase incremental = reference_case;
  incremental.spec.incremental(true);
  expect_same_trajectory(reference, record_trajectory(incremental),
                         label + " [incremental exact]");
}

TEST(IncrementalEpochTest, SequentialEpochsLockstepAcrossBackendsAndNoise) {
  for (Policy policy : {Policy::kBestResponse, Policy::kHybridBR}) {
    for (const auto kind :
         {net::UnderlayKind::kDense, net::UnderlayKind::kProcedural}) {
      for (bool quiet : {false, true}) {
        DeterminismCase c;
        c.epochs = 8;
        c.env = env_config(kind, quiet);
        c.spec = base_spec(policy, Metric::kDelayPing);
        const std::string label =
            std::string(to_string(policy)) + " / " +
            (kind == net::UnderlayKind::kDense ? "dense" : "procedural") +
            (quiet ? " / quiet" : " / noisy");
        expect_incremental_lockstep(c, label);
      }
    }
  }
}

TEST(IncrementalEpochTest, StaggeredChurnedEpochsLockstep) {
  // Staggered T/n evaluation with churn replay: the skip decision runs at
  // every per-node slot and membership flips must re-seed the dirty set.
  for (Policy policy : {Policy::kBestResponse, Policy::kHybridBR}) {
    for (bool quiet : {false, true}) {
      DeterminismCase c;
      c.epochs = 3;
      c.env = env_config(net::UnderlayKind::kDense, quiet);
      c.spec = base_spec(policy, Metric::kDelayPing)
                   .epoch_period(60.0)
                   .staggered(0xBDu)
                   .churn(make_trace(c.nodes, c.epochs));
      expect_incremental_lockstep(
          c, std::string("staggered ") + to_string(policy) +
                 (quiet ? " / quiet" : " / noisy"));
    }
  }
}

TEST(IncrementalEpochTest, SynchronizedChurnLockstep) {
  DeterminismCase c;
  c.epochs = 4;
  c.env = env_config(net::UnderlayKind::kDense, true);
  c.spec = base_spec(Policy::kHybridBR, Metric::kDelayPing)
               .epoch_period(60.0)
               .churn(make_trace(c.nodes, c.epochs));
  expect_incremental_lockstep(c, "synchronized churn / quiet");
}

TEST(IncrementalEpochTest, QuietConvergedOverlayActuallySkips) {
  // Guard against the lockstep suites passing vacuously: on a quiet plane
  // the overlay converges and later epochs must skip clean nodes (with the
  // noisy default, every announce delta re-marks everyone and nothing is
  // ever skipped — also asserted).
  for (bool quiet : {true, false}) {
    host::OverlayHost host(14, 11, env_config(net::UnderlayKind::kDense, quiet));
    const auto handle = host.deploy(
        base_spec(Policy::kBestResponse, Metric::kDelayPing).incremental(true));
    host.run_epochs(handle, 10);
    const auto snap = host.snapshot(handle);
    EXPECT_EQ(snap.total_evaluations() + snap.total_skipped_evals(), 14u * 10u);
    if (quiet) {
      EXPECT_GT(snap.total_skipped_evals(), 0u)
          << "quiet converged overlay never skipped an evaluation";
      EXPECT_LT(snap.dirty_nodes(), 14u);
    } else {
      EXPECT_EQ(snap.total_skipped_evals(), 0u)
          << "noisy overlay skipped despite continuously drifting announces";
    }
  }
}

TEST(IncrementalEpochTest, EpochEventsCarryEvaluationTelemetry) {
  host::OverlayHost host(14, 11, env_config(net::UnderlayKind::kDense, true));
  const auto handle = host.deploy(
      base_spec(Policy::kBestResponse, Metric::kDelayPing).incremental(true));
  std::vector<host::EpochEvent> events;
  host.on_epoch_end(handle,
                    [&](const host::EpochEvent& e) { events.push_back(e); });
  host.run_epochs(handle, 6);
  ASSERT_EQ(events.size(), 6u);
  std::uint64_t evaluated = 0;
  std::uint64_t skipped = 0;
  for (const auto& e : events) {
    // No churn: every online node either evaluated or was skipped.
    EXPECT_EQ(e.evaluated + e.skipped, e.online_count);
    evaluated += e.evaluated;
    skipped += e.skipped;
  }
  const auto snap = host.snapshot(handle);
  EXPECT_EQ(evaluated, snap.total_evaluations());
  EXPECT_EQ(skipped, snap.total_skipped_evals());
  EXPECT_GT(skipped, 0u);  // quiet plane: the dirty set drained
  // Epoch 1 evaluates the construction-seeded full set.
  EXPECT_EQ(events.front().evaluated, events.front().online_count);
}

TEST(IncrementalEpochTest, NonIncrementalTelemetryIsFullCount) {
  host::OverlayHost host(14, 11, env_config(net::UnderlayKind::kDense, false));
  const auto handle =
      host.deploy(base_spec(Policy::kBestResponse, Metric::kDelayPing));
  host.run_epochs(handle, 3);
  const auto snap = host.snapshot(handle);
  EXPECT_EQ(snap.total_evaluations(), 14u * 3u);
  EXPECT_EQ(snap.total_skipped_evals(), 0u);
  EXPECT_EQ(snap.dirty_nodes(), 14u);  // "everyone always re-evaluates"
}

TEST(IncrementalEpochTest, ToleranceModeStaysWithinScoreBand) {
  // With a drift threshold, marking is selective and only a score band is
  // promised. Compare mean routing cost against the full recompute on the
  // default noisy plane and require it within 15% — comfortably wide for
  // n=14 yet tight enough to catch a tracker that freezes the overlay.
  DeterminismCase reference_case;
  reference_case.epochs = 8;
  reference_case.env = env_config(net::UnderlayKind::kDense, false);
  reference_case.spec = base_spec(Policy::kBestResponse, Metric::kDelayPing);
  const Trajectory reference = record_trajectory(reference_case);

  DeterminismCase tolerant = reference_case;
  tolerant.spec.incremental(true, /*drift_threshold=*/0.05);
  const Trajectory actual = record_trajectory(tolerant);

  auto mean = [](const std::vector<double>& xs) {
    return std::accumulate(xs.begin(), xs.end(), 0.0) /
           static_cast<double>(xs.size());
  };
  const double expected_cost = mean(reference.costs.back());
  const double actual_cost = mean(actual.costs.back());
  EXPECT_NEAR(actual_cost, expected_cost, 0.15 * expected_cost)
      << "tolerance-mode score left the band: " << actual_cost << " vs "
      << expected_cost;
}

TEST(IncrementalEpochTest, ScaleModeIsInternallyDeterministic) {
  // §5 sampled scale mode draws its candidate pools from the policy RNG at
  // evaluation time, so skipping nodes shifts the stream: incremental
  // scale-mode runs are a different (deterministic) trajectory family, not
  // bit-identical to the full recompute. Replaying the same deployment must
  // reproduce it exactly, at any worker count, workers 0 included: the
  // dirty set is frozen at the epoch boundary whatever the count.
  overlay::OverlayConfig config;
  config.policy = Policy::kBestResponse;
  config.metric = Metric::kDelayPing;
  config.k = 3;
  config.seed = 99;
  config.br_sample = 6;
  config.br_landmarks = 8;
  config.incremental = true;

  DeterminismCase c;
  c.nodes = 20;
  c.epochs = 6;
  c.env = env_config(net::UnderlayKind::kProcedural, true);
  c.spec = host::OverlaySpec(config);
  const Trajectory first = record_trajectory(c);
  expect_same_trajectory(first, record_trajectory(c), "scale-mode replay");
  for (int workers : {1, 2}) {
    DeterminismCase parallel = c;
    parallel.spec.workers(workers);
    expect_same_trajectory(first, record_trajectory(parallel),
                           "scale-mode workers=" + std::to_string(workers) +
                               " vs workers=0");
  }
}

TEST(IncrementalEpochTest, ConfigValidation) {
  overlay::EnvironmentConfig env;
  host::OverlayHost host(10, 7, env);
  {
    OverlaySpec spec;
    spec.policy(Policy::kRandom).k(3).incremental(true);
    EXPECT_THROW(host.deploy(spec), std::invalid_argument);
  }
  {
    OverlaySpec spec;
    spec.policy(Policy::kBestResponse).k(3).incremental(true).audits(true);
    EXPECT_THROW(host.deploy(spec), std::invalid_argument);
  }
  {
    OverlaySpec spec;
    spec.policy(Policy::kBestResponse).k(3).incremental(true, -0.1);
    EXPECT_THROW(host.deploy(spec), std::invalid_argument);
  }
}

}  // namespace
}  // namespace egoist::testing
