// NodeStore's derived indexes against brute force. After every random
// membership change or row write, the online array is the ascending filter
// of is_online and every node's holders (from the in-link index) equal a
// scan of every row; the by-rank sample draws exactly what
// sample_without_replacement draws over the explicit list of eligible
// nodes.
#include "overlay/node_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace egoist::overlay {
namespace {

std::vector<NodeId> online_filter(const NodeStore& store) {
  std::vector<NodeId> out;
  for (std::size_t v = 0; v < store.size(); ++v) {
    if (store.is_online(v)) out.push_back(static_cast<NodeId>(v));
  }
  return out;
}

std::vector<NodeId> scanned_holders(const NodeStore& store, std::size_t node,
                                    bool wiring_only) {
  const auto holds = [&](std::span<const NodeId> row) {
    return std::find(row.begin(), row.end(), static_cast<NodeId>(node)) !=
           row.end();
  };
  std::vector<NodeId> out;
  for (std::size_t u = 0; u < store.size(); ++u) {
    if (u == node || !store.is_online(u)) continue;
    if (holds(store.wiring(u)) || (!wiring_only && holds(store.donated(u)))) {
      out.push_back(static_cast<NodeId>(u));
    }
  }
  return out;
}

/// A row of up to `capacity` uniform targets; repeats and the owner itself
/// are allowed, so the index's deduplication and self filter are exercised.
std::vector<NodeId> random_row(util::Rng& rng, std::size_t nodes,
                               std::size_t capacity) {
  std::vector<NodeId> row(static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(capacity))));
  for (NodeId& v : row) {
    v = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
  }
  return row;
}

void expect_indexes_match(const NodeStore& store, int step) {
  const auto want_online = online_filter(store);
  const auto online = store.online_ids();
  ASSERT_EQ(std::vector<NodeId>(online.begin(), online.end()), want_online)
      << "step " << step;
  ASSERT_EQ(store.online_count(), want_online.size()) << "step " << step;
  std::vector<NodeId> holders;
  for (std::size_t v = 0; v < store.size(); ++v) {
    for (const bool wiring_only : {false, true}) {
      store.collect_holders(v, holders, wiring_only);
      ASSERT_EQ(holders, scanned_holders(store, v, wiring_only))
          << "step " << step << " node " << v << " wiring_only "
          << wiring_only;
    }
  }
}

TEST(NodeStoreTest, IndexesMatchBruteForceAfterEveryWrite) {
  util::Rng rng(31);
  for (int trial = 0; trial < 12; ++trial) {
    const auto nodes = static_cast<std::size_t>(rng.uniform_int(1, 40));
    const auto wiring_cap = static_cast<std::size_t>(rng.uniform_int(1, 6));
    const auto donated_cap = static_cast<std::size_t>(rng.uniform_int(0, 4));
    NodeStore store(nodes, wiring_cap, donated_cap);
    expect_indexes_match(store, -1);
    for (int step = 0; step < 300; ++step) {
      const auto v = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
      switch (rng.uniform_int(0, 4)) {
        case 0:
          store.set_online(v, rng.chance(0.6));
          break;
        case 1:
          store.set_wiring(v, random_row(rng, nodes, wiring_cap));
          break;
        case 2:
          store.set_donated(v, random_row(rng, nodes, donated_cap));
          break;
        case 3:
          store.clear_wiring(v);
          break;
        default:
          store.clear_donated(v);
          break;
      }
      expect_indexes_match(store, step);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(NodeStoreTest, SampleOnlineMatchesSampleOverTheExplicitList) {
  util::Rng rng(47);
  for (int c = 0; c < 1000; ++c) {
    const auto nodes = static_cast<std::size_t>(rng.uniform_int(1, 120));
    NodeStore store(nodes, 1, 0);
    const double up = rng.uniform(0.0, 1.0);
    for (std::size_t v = 0; v < nodes; ++v) store.set_online(v, rng.chance(up));
    // Excluded entries: online, offline and repeated ids alike.
    std::vector<NodeId> excluded(
        static_cast<std::size_t>(rng.uniform_int(0, 12)));
    for (NodeId& v : excluded) {
      v = static_cast<NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
    }
    std::vector<NodeId> eligible;
    for (NodeId v : store.online_ids()) {
      if (std::find(excluded.begin(), excluded.end(), v) == excluded.end()) {
        eligible.push_back(v);
      }
    }
    const auto m = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(eligible.size()) + 3));
    const std::uint64_t seed = rng.engine()();
    util::Rng by_rank(seed), explicit_list(seed);
    const auto got = store.sample_online(by_rank, excluded, m);
    const auto want = explicit_list.sample_without_replacement(
        std::span<const NodeId>(eligible), std::min(m, eligible.size()));
    ASSERT_EQ(got, want) << "case " << c;
    EXPECT_EQ(by_rank.engine(), explicit_list.engine()) << "case " << c;
  }
}

TEST(NodeStoreTest, RowWritesCheckCapacityAndTargets) {
  NodeStore store(4, 2, 1);
  const std::vector<NodeId> three{1, 2, 3};
  const std::vector<NodeId> two{1, 2};
  const std::vector<NodeId> out_of_range{4};
  const std::vector<NodeId> negative{-1};
  EXPECT_THROW(store.set_wiring(0, three), std::length_error);
  EXPECT_THROW(store.set_donated(0, two), std::length_error);
  EXPECT_THROW(store.set_wiring(0, out_of_range), std::out_of_range);
  EXPECT_THROW(store.set_donated(0, negative), std::out_of_range);
  // A rejected write leaves the row and the index untouched.
  store.set_online(0, true);
  store.set_wiring(0, two);
  EXPECT_THROW(store.set_wiring(0, out_of_range), std::out_of_range);
  std::vector<NodeId> holders;
  store.collect_holders(1, holders);
  EXPECT_EQ(holders, std::vector<NodeId>{0});
}

TEST(EpochStoreTest, ProposalFlagsRoundTrip) {
  EpochStore epoch;
  epoch.begin(2, 3, 0);
  for (const NodeId v : {0, 1, 2}) epoch.add_pool(v, {}, {});
  const std::vector<NodeId> wiring{1, 2};
  epoch.set_proposal(0, wiring, /*adopt=*/true, /*search_skipped=*/false);
  epoch.set_proposal(1, {}, /*adopt=*/false, /*search_skipped=*/true);
  EXPECT_TRUE(epoch.adopted(0));
  EXPECT_FALSE(epoch.search_skipped(0));
  EXPECT_FALSE(epoch.adopted(1));
  EXPECT_TRUE(epoch.search_skipped(1));
  EXPECT_FALSE(epoch.adopted(2));
  EXPECT_FALSE(epoch.search_skipped(2));
  EXPECT_EQ(std::vector<NodeId>(epoch.proposal(0).begin(),
                                epoch.proposal(0).end()),
            wiring);
}

TEST(EpochStoreTest, SlotsRoundTripInAnyNodeOrder) {
  // Slots follow evaluation order, which scale mode shuffles: rows added
  // for nodes 7, 2, 5 (an empty pool among them) come back by slot, past
  // a reservation too small to hold them.
  struct Row {
    NodeId node;
    std::vector<NodeId> ids;
    std::vector<double> values;
  };
  const std::vector<Row> rows{{7, {1, 4, 9}, {3.5, 1.25, 8.0}},
                              {2, {}, {}},
                              {5, {0, 7}, {2.0, 6.5}}};
  EpochStore epoch;
  for (int epoch_index = 0; epoch_index < 2; ++epoch_index) {
    epoch.begin(2, 1, 2);  // begin() also drops the previous epoch's slots
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(epoch.add_pool(rows[i].node, rows[i].ids, rows[i].values), i);
    }
    ASSERT_EQ(epoch.slots(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(epoch.node(i), rows[i].node) << "slot " << i;
      const auto ids = epoch.pool_ids(i);
      const auto values = epoch.pool_values(i);
      EXPECT_EQ(std::vector<NodeId>(ids.begin(), ids.end()), rows[i].ids);
      EXPECT_EQ(std::vector<double>(values.begin(), values.end()),
                rows[i].values);
      EXPECT_TRUE(epoch.proposal(i).empty());
      EXPECT_FALSE(epoch.adopted(i));
    }
  }
  // A rejected row adds no slot; a proposal is bounded by the capacity.
  const std::vector<NodeId> one_id{1};
  const std::vector<double> one_value{1.0};
  EXPECT_THROW(epoch.add_pool(3, one_id, {}), std::invalid_argument);
  const std::vector<NodeId> three{1, 2, 3};
  EXPECT_THROW(epoch.set_proposal(0, three, true, false), std::length_error);
  EXPECT_EQ(epoch.add_pool(3, one_id, one_value), rows.size());
}

}  // namespace
}  // namespace egoist::overlay
