// Failure-injection tests for the protocol plane: node crashes mid-flood,
// stale databases, LSA aging and rejoin sequencing. Failure detection is
// modelled as instant, so no detector is simulated here:
// EgoistNetwork::set_online splices the HybridBR backbone and runs the
// immediate repairs at once.
#include <gtest/gtest.h>

#include "proto/link_state.hpp"

namespace egoist::proto {
namespace {

LinkStateProtocol::PropagationFn delay_10ms() {
  return [](NodeId, NodeId) { return 0.01; };
}

/// Bidirectional chain 0 <-> 1 <-> 2 <-> 3 <-> 4.
LinkStateProtocol make_chain(sim::Simulator& sim, std::size_t n) {
  LinkStateProtocol proto(sim, n, delay_10ms());
  for (std::size_t u = 0; u < n; ++u) {
    std::vector<LinkEntry> links;
    if (u > 0) links.push_back({static_cast<NodeId>(u - 1), 1.0});
    if (u + 1 < n) links.push_back({static_cast<NodeId>(u + 1), 1.0});
    proto.set_links(static_cast<NodeId>(u), std::move(links));
  }
  return proto;
}

TEST(FailureInjectionTest, CrashMidFloodDropsInFlightDelivery) {
  sim::Simulator sim;
  auto proto = make_chain(sim, 5);
  proto.originate(0);
  sim.run_until(0.015);  // LSA reached node 1, is in flight to node 2
  proto.set_up(2, false);  // node 2 crashes
  sim.run_until(1.0);
  EXPECT_NE(proto.database(1).lookup(0), nullptr);
  EXPECT_EQ(proto.database(2).lookup(0), nullptr);  // dropped at crash
  EXPECT_EQ(proto.database(3).lookup(0), nullptr);  // behind the crash
}

TEST(FailureInjectionTest, RecoveredNodeCatchesUpOnNextOrigination) {
  sim::Simulator sim;
  auto proto = make_chain(sim, 5);
  proto.set_up(2, false);
  proto.originate(0);
  sim.run_until(1.0);
  EXPECT_EQ(proto.database(4).lookup(0), nullptr);
  proto.set_up(2, true);
  proto.originate(0);  // next periodic announcement
  sim.run_until(2.0);
  EXPECT_NE(proto.database(2).lookup(0), nullptr);
  EXPECT_NE(proto.database(4).lookup(0), nullptr);
}

TEST(FailureInjectionTest, StaleDatabaseStillBuildsUsableGraph) {
  sim::Simulator sim;
  auto proto = make_chain(sim, 4);
  for (NodeId v = 0; v < 4; ++v) proto.originate(v);
  sim.run_until(1.0);
  // Node 3 dies; nobody re-announces. Every viewer's DB still names 3's
  // links (stale), and graph construction must not blow up.
  proto.set_up(3, false);
  const auto g = proto.view(0);
  EXPECT_TRUE(g.has_edge(3, 2));  // stale entry kept until aged out
}

TEST(FailureInjectionTest, AgingPurgesDeadOriginsOnly) {
  sim::Simulator sim;
  auto proto = make_chain(sim, 4);
  for (NodeId v = 0; v < 4; ++v) proto.originate(v);
  sim.run_until(1.0);
  proto.set_up(3, false);
  // Fresh announcements from the living keep their entries young.
  sim.run_until(30.0);
  for (NodeId v = 0; v < 3; ++v) proto.originate(v);
  sim.run_until(31.0);
  auto& db = proto.mutable_database(0);
  const std::size_t purged = db.purge_older_than(sim.now() - 5.0);
  EXPECT_EQ(purged, 1u);  // only node 3's stale LSA
  EXPECT_EQ(db.lookup(3), nullptr);
  EXPECT_NE(db.lookup(1), nullptr);
}

TEST(FailureInjectionTest, RejoinUsesFreshSequenceNumbers) {
  sim::Simulator sim;
  auto proto = make_chain(sim, 3);
  proto.originate(1);
  sim.run_until(1.0);
  const auto first_seq = proto.database(0).lookup(1)->seq;
  proto.set_up(1, false);
  proto.set_up(1, true);  // leave + rejoin
  proto.originate(1);
  sim.run_until(2.0);
  // The rejoined node's announcement must supersede its pre-crash one.
  EXPECT_GT(proto.database(0).lookup(1)->seq, first_seq);
}

TEST(FailureInjectionTest, OutOfOrderDeliveryKeepsFreshest) {
  TopologyDb db;
  // Seq 3 arrives first (fast path), then seq 2 straggles in.
  EXPECT_TRUE(db.update(Announcement{0, 3, {{1, 5.0}}}, 1.0));
  EXPECT_FALSE(db.update(Announcement{0, 2, {{2, 9.0}}}, 2.0));
  EXPECT_EQ(db.lookup(0)->links[0].neighbor, 1);
}

}  // namespace
}  // namespace egoist::proto
