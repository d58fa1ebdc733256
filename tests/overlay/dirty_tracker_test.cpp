// Unit truth table for overlay::DirtyTracker: which events set which dirty
// bits in which mode, and the drift-probe hysteresis contract. The tracker
// is pure bookkeeping (no network, environment, or RNG access), so these
// tests exercise it directly.
#include "overlay/dirty_tracker.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace egoist::overlay {
namespace {

using graph::Edge;
using graph::NodeId;

TEST(DirtyTrackerTest, ResetSeedsEveryNodeDirty) {
  DirtyTracker t;
  t.reset(5, 0.0);
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.dirty_count(), 5u);
  EXPECT_TRUE(t.exact());
  for (std::size_t v = 0; v < 5; ++v) EXPECT_TRUE(t.is_dirty(v));
}

TEST(DirtyTrackerTest, MarkAndClearMaintainTheCount) {
  DirtyTracker t;
  t.reset(4, 0.0);
  for (std::size_t v = 0; v < 4; ++v) t.clear(v);
  EXPECT_EQ(t.dirty_count(), 0u);
  t.clear(1);  // idempotent
  EXPECT_EQ(t.dirty_count(), 0u);
  t.mark(2);
  t.mark(2);  // idempotent
  EXPECT_EQ(t.dirty_count(), 1u);
  EXPECT_TRUE(t.is_dirty(2));
  EXPECT_FALSE(t.is_dirty(1));
  t.mark_all();
  EXPECT_EQ(t.dirty_count(), 4u);
}

TEST(DirtyTrackerTest, ResetSwitchesMode) {
  DirtyTracker t;
  t.reset(3, 0.1);
  EXPECT_FALSE(t.exact());
  EXPECT_DOUBLE_EQ(t.drift_threshold(), 0.1);
  t.reset(3, 0.0);
  EXPECT_TRUE(t.exact());
}

// --- announce_delta_significant ---

TEST(DirtyTrackerTest, ExactModeAnyCostBitIsSignificant) {
  DirtyTracker t;
  t.reset(4, 0.0);
  const std::vector<Edge> old_row = {{1, 10.0}, {2, 20.0}};
  const std::vector<Edge> same = {{1, 10.0}, {2, 20.0}};
  const std::vector<Edge> reordered = {{2, 20.0}, {1, 10.0}};
  const std::vector<Edge> nudged = {{1, 10.0}, {2, 20.0000001}};
  EXPECT_FALSE(t.announce_delta_significant(old_row, same));
  EXPECT_FALSE(t.announce_delta_significant(old_row, reordered));
  EXPECT_TRUE(t.announce_delta_significant(old_row, nudged));
}

TEST(DirtyTrackerTest, EdgeSetChangeIsAlwaysSignificant) {
  DirtyTracker exact;
  exact.reset(4, 0.0);
  DirtyTracker tolerant;
  tolerant.reset(4, 0.5);
  const std::vector<Edge> old_row = {{1, 10.0}, {2, 20.0}};
  const std::vector<Edge> swapped_target = {{1, 10.0}, {3, 20.0}};
  const std::vector<Edge> grew = {{1, 10.0}, {2, 20.0}, {3, 5.0}};
  const std::vector<Edge> shrank = {{1, 10.0}};
  for (DirtyTracker* t : {&exact, &tolerant}) {
    EXPECT_TRUE(t->announce_delta_significant(old_row, swapped_target));
    EXPECT_TRUE(t->announce_delta_significant(old_row, grew));
    EXPECT_TRUE(t->announce_delta_significant(old_row, shrank));
  }
}

TEST(DirtyTrackerTest, ToleranceModeIgnoresSubThresholdCostMoves) {
  DirtyTracker t;
  t.reset(4, 0.1);  // 10% relative band
  const std::vector<Edge> old_row = {{1, 100.0}, {2, 50.0}};
  const std::vector<Edge> within = {{1, 105.0}, {2, 46.0}};
  const std::vector<Edge> beyond = {{1, 115.0}, {2, 50.0}};
  EXPECT_FALSE(t.announce_delta_significant(old_row, within));
  EXPECT_TRUE(t.announce_delta_significant(old_row, beyond));
}

// --- on_membership ---

TEST(DirtyTrackerTest, MembershipInExactModeMarksEveryone) {
  DirtyTracker t;
  t.reset(5, 0.0);
  for (std::size_t v = 0; v < 5; ++v) t.clear(v);
  const std::vector<NodeId> holders = {3};
  t.on_membership(1, /*global_candidates=*/false, holders);
  EXPECT_EQ(t.dirty_count(), 5u);
}

TEST(DirtyTrackerTest, GlobalCandidateMembershipMarksEveryone) {
  DirtyTracker t;
  t.reset(5, 0.2);
  for (std::size_t v = 0; v < 5; ++v) t.clear(v);
  t.on_membership(1, /*global_candidates=*/true, {});
  EXPECT_EQ(t.dirty_count(), 5u);
}

TEST(DirtyTrackerTest, ToleranceMembershipMarksChurnedNodeAndHolders) {
  DirtyTracker t;
  t.reset(5, 0.2);
  for (std::size_t v = 0; v < 5; ++v) t.clear(v);
  const std::vector<NodeId> holders = {0, 3};
  t.on_membership(1, /*global_candidates=*/false, holders);
  EXPECT_TRUE(t.is_dirty(0));
  EXPECT_TRUE(t.is_dirty(1));
  EXPECT_FALSE(t.is_dirty(2));
  EXPECT_TRUE(t.is_dirty(3));
  EXPECT_FALSE(t.is_dirty(4));
}

// --- drift baselines ---

/// set_baseline reads its values by node id (the evaluation's expanded
/// measurement row); drift_exceeded takes the probe's values in link order.
std::vector<double> values_by_id(std::size_t n,
                                 std::initializer_list<std::pair<NodeId, double>>
                                     entries) {
  std::vector<double> v(n, 0.0);
  for (const auto& [id, value] : entries) {
    v[static_cast<std::size_t>(id)] = value;
  }
  return v;
}

TEST(DirtyTrackerTest, DriftWithinThresholdDoesNotTrigger) {
  DirtyTracker t;
  t.reset(4, 0.1);
  const std::vector<NodeId> links = {1, 2};
  t.set_baseline(0, links, values_by_id(4, {{1, 100.0}, {2, 50.0}}));
  EXPECT_FALSE(t.drift_exceeded(0, links, std::vector<double>{109.0, 46.0}));
  EXPECT_TRUE(t.drift_exceeded(0, links, std::vector<double>{112.0, 50.0}));
}

TEST(DirtyTrackerTest, DriftComparesAgainstFixedBaselineUntilReset) {
  // Hysteresis: the baseline does not creep with each probe, so slow drift
  // accumulates until it crosses the band once; re-baselining (the
  // re-evaluation) then re-arms the probe at the new values.
  DirtyTracker t;
  t.reset(3, 0.1);
  const std::vector<NodeId> links = {1};
  t.set_baseline(0, links, values_by_id(3, {{1, 100.0}}));
  EXPECT_FALSE(t.drift_exceeded(0, links, std::vector<double>{106.0}));
  // Probing did not move the baseline: two sub-threshold steps add up.
  EXPECT_TRUE(t.drift_exceeded(0, links, std::vector<double>{111.0}));
  t.set_baseline(0, links, values_by_id(3, {{1, 111.0}}));
  EXPECT_FALSE(t.drift_exceeded(0, links, std::vector<double>{106.0}));
}

TEST(DirtyTrackerTest, LinkWithoutBaselineCountsAsExceeded) {
  DirtyTracker t;
  t.reset(3, 0.1);
  const std::vector<NodeId> baselined = {1};
  t.set_baseline(0, baselined, values_by_id(3, {{1, 100.0}}));
  const std::vector<NodeId> gained = {1, 2};
  EXPECT_TRUE(t.drift_exceeded(0, gained, std::vector<double>{100.0, 40.0}));
}

TEST(DirtyTrackerTest, ExactModeNeverDriftTriggers) {
  DirtyTracker t;
  t.reset(3, 0.0);
  const std::vector<NodeId> links = {1};
  t.set_baseline(0, links, values_by_id(3, {{1, 100.0}}));
  EXPECT_FALSE(t.drift_exceeded(0, links, std::vector<double>{500.0}));
}

}  // namespace
}  // namespace egoist::overlay
