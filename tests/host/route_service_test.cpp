// Concurrency battery for host::RouteService (the TSan CI job runs this
// suite): reader threads hammer queries while epochs rewire and churn the
// overlay on the host thread. The assertions pin the RCU contract:
//
//  - every answered query is internally consistent with SOME published
//    snapshot (path edges exist in that snapshot's announced graph and sum
//    to the reported cost — a torn read could not produce that),
//  - retired snapshots drain to zero once readers release them (no leak,
//    no use-after-free; ASan/TSan jobs double-check the latter),
//  - service counters reconcile exactly with reader-side tallies,
//  - epoch-end publication ordering: subscribers registered after the
//    service observe the fresh epoch's publication from their callback,
//  - answers past the row cache cap (a search stopped at dst on the
//    reader's own scratch, over the view's CSR) equal cached answers bit
//    for bit, and stay equal to graph::dijkstra on the pinned view while
//    four readers search concurrently under churn,
//  - serve-while-epoching determinism: trajectories with an active
//    RouteService under reader load are bit-identical to trajectories with
//    no readers, across workers {0,2,4} x incremental on/off.
#include "host/route_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "../overlay/determinism_harness.hpp"
#include "churn/churn.hpp"
#include "graph/shortest_path.hpp"
#include "host/overlay_host.hpp"
#include "util/rng.hpp"

namespace egoist {
namespace {

using testing::DeterminismCase;
using testing::expect_same_trajectory;
using testing::record_trajectory;

host::OverlaySpec br_spec(std::uint64_t seed) {
  overlay::OverlayConfig config;
  config.policy = overlay::Policy::kBestResponse;
  config.metric = overlay::Metric::kDelayPing;
  config.k = 3;
  config.seed = seed;
  return host::OverlaySpec(config);
}

/// Validates one path answer against the snapshot that produced it:
/// consecutive edges must exist in that snapshot's announced graph and
/// their weights must sum to the reported cost. Any torn read (mixing two
/// publications) breaks one of these with overwhelming probability.
bool internally_consistent(const host::ServedSnapshot& pinned,
                           const host::PathAnswer& answer,
                           graph::NodeId src, graph::NodeId dst) {
  const auto& announced = pinned.snapshot().announced_graph();
  if (!answer.reachable) {
    return answer.nodes.empty() && answer.cost == graph::kUnreachable;
  }
  if (answer.nodes.front() != src || answer.nodes.back() != dst) return false;
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < answer.nodes.size(); ++i) {
    if (!announced.has_edge(answer.nodes[i], answer.nodes[i + 1])) return false;
    total += announced.edge_weight(answer.nodes[i], answer.nodes[i + 1]);
  }
  return std::abs(total - answer.cost) <= 1e-9 * (1.0 + answer.cost);
}

TEST(RouteServiceConcurrency, HammeredQueriesStayConsistentUnderChurn) {
  constexpr std::size_t kNodes = 32;
  constexpr int kReaders = 4;
  constexpr int kEpochs = 10;

  host::OverlayHost host(kNodes, 77);
  churn::ChurnConfig churn_config;
  churn_config.timescale = 0.05;  // accelerate: real joins/leaves in 10 epochs
  churn_config.initial_on_fraction = 0.9;
  churn::ChurnTrace trace(kNodes, kEpochs * 60.0, 99, churn_config);
  const auto handle =
      host.deploy(br_spec(7).epoch_period(60.0).staggered(5).churn(trace));
  host::RouteService service(host, handle);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> inconsistent{0};
  std::vector<std::uint64_t> route_tallies(kReaders, 0);
  std::vector<std::uint64_t> path_tallies(kReaders, 0);
  std::vector<std::uint64_t> score_tallies(kReaders, 0);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      util::Rng rng(1000 + static_cast<std::uint64_t>(r));
      while (!stop.load(std::memory_order_relaxed)) {
        const auto src = static_cast<graph::NodeId>(
            rng.uniform_int(0, static_cast<std::int64_t>(kNodes) - 1));
        const auto dst = static_cast<graph::NodeId>(
            rng.uniform_int(0, static_cast<std::int64_t>(kNodes) - 1));
        const auto pinned = service.acquire();
        const auto route = pinned.route(src, dst);
        ++route_tallies[static_cast<std::size_t>(r)];
        const auto path = pinned.path(src, dst);
        ++path_tallies[static_cast<std::size_t>(r)];
        if (!internally_consistent(pinned, path, src, dst)) {
          inconsistent.fetch_add(1, std::memory_order_relaxed);
        }
        // route and path answer from the same pinned view: they must agree.
        if (route.reachable != path.reachable ||
            (route.reachable && route.cost != path.cost) ||
            (route.reachable && path.nodes.size() > 1 &&
             route.next_hop != path.nodes[1])) {
          inconsistent.fetch_add(1, std::memory_order_relaxed);
        }
        if (rng.chance(0.05)) {
          const double s = pinned.score(src);
          ++score_tallies[static_cast<std::size_t>(r)];
          if (pinned.snapshot().is_online(src)) {
            if (!(s >= 0.0)) inconsistent.fetch_add(1, std::memory_order_relaxed);
          } else if (!std::isnan(s)) {
            inconsistent.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  host.run_epochs(handle, kEpochs);
  stop.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(inconsistent.load(), 0u);

  const auto stats = service.stats();
  EXPECT_EQ(stats.swaps, static_cast<std::uint64_t>(kEpochs));
  EXPECT_EQ(stats.published_epoch, kEpochs);
  EXPECT_EQ(stats.seal_violations, 0u);

  // Counters reconcile exactly with the reader-side tallies.
  std::uint64_t route_total = 0, path_total = 0, score_total = 0;
  for (int r = 0; r < kReaders; ++r) {
    route_total += route_tallies[static_cast<std::size_t>(r)];
    path_total += path_tallies[static_cast<std::size_t>(r)];
    score_total += score_tallies[static_cast<std::size_t>(r)];
  }
  EXPECT_EQ(stats.queries_route, route_total);
  EXPECT_EQ(stats.queries_path, path_total);
  EXPECT_EQ(stats.queries_score, score_total);
  EXPECT_GT(stats.queries_served(), 0u);

  // Grace period: with every reader joined, one reclaim drains the
  // retired list to zero.
  service.reclaim();
  EXPECT_EQ(service.retired_pending(), 0u);
}

TEST(RouteServiceConcurrency, RetiredViewsDrainOnlyAfterReadersRelease) {
  host::OverlayHost host(12, 3);
  const auto handle = host.deploy(br_spec(11));
  host::RouteService service(host, handle);

  // Pin the initial publication, then swap it out twice.
  auto pinned = std::make_unique<host::ServedSnapshot>(service.acquire());
  host.run_epochs(handle, 2);
  EXPECT_EQ(service.stats().swaps, 2u);

  // The pinned view cannot be reclaimed while the reader holds it. (The
  // intermediate epoch-1 view has already drained: publish() sweeps.)
  service.reclaim();
  EXPECT_EQ(service.retired_pending(), 1u);
  EXPECT_EQ(pinned->publish_seq(), 1u);

  // Queries through the superseded view still answer, and count as stale.
  const auto before = service.stats().stale_served;
  (void)pinned->route(0, 1);
  EXPECT_GT(service.stats().stale_served, before);

  // Release + reclaim: refcount drains to the retired list, view freed.
  pinned.reset();
  EXPECT_EQ(service.reclaim(), 1u);
  EXPECT_EQ(service.retired_pending(), 0u);
}

TEST(RouteServiceConcurrency, DrainQuiescesWhenNoReaderPinsAView) {
  host::OverlayHost host(12, 3);
  const auto handle = host.deploy(br_spec(11));
  host::RouteService service(host, handle);
  host.run_epochs(handle, 3);
  (void)service.route(0, 1);  // transient pin, released before drain
  EXPECT_TRUE(service.drain(5.0));
  EXPECT_EQ(service.retired_pending(), 0u);
}

TEST(RouteServiceConcurrency, DrainWaitsForPinnedReadersAndTimesOut) {
  host::OverlayHost host(12, 3);
  const auto handle = host.deploy(br_spec(11));
  host::RouteService service(host, handle);

  // A reader pins the current publication, then it is superseded: drain
  // cannot finish while the pin lives.
  auto pinned = std::make_unique<host::ServedSnapshot>(service.acquire());
  host.run_epochs(handle, 1);
  EXPECT_FALSE(service.drain(0.05));
  EXPECT_EQ(service.retired_pending(), 1u);

  // A releasing reader unblocks a waiting drain.
  std::thread releaser([&pinned] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    pinned.reset();
  });
  EXPECT_TRUE(service.drain(10.0));
  releaser.join();
  EXPECT_EQ(service.retired_pending(), 0u);

  // Quiesced is a stable state: an immediate re-drain is instant.
  EXPECT_TRUE(service.drain(0.0));
}

TEST(RouteServiceConcurrency, DrainAlsoWaitsOutPinsOfTheCurrentView) {
  host::OverlayHost host(12, 3);
  const auto handle = host.deploy(br_spec(11));
  host::RouteService service(host, handle);
  // No swap ever happened — the pin is on the CURRENT view, and drain
  // still must wait for it (a dangling reader is a leak either way).
  auto pinned = std::make_unique<host::ServedSnapshot>(service.acquire());
  EXPECT_FALSE(service.drain(0.05));
  pinned.reset();
  EXPECT_TRUE(service.drain(5.0));
}

TEST(RouteServiceConcurrency, FreshQueriesAreNotStale) {
  host::OverlayHost host(12, 3);
  const auto handle = host.deploy(br_spec(11));
  host::RouteService service(host, handle);
  host.run_epochs(handle, 3);
  (void)service.route(0, 1);
  (void)service.path(1, 2);
  EXPECT_EQ(service.stats().stale_served, 0u);
}

TEST(RouteServiceConcurrency, EpochEndSubscribersAfterServiceSeeFreshPublication) {
  host::OverlayHost host(12, 5);
  const auto handle = host.deploy(br_spec(21));
  host::RouteService service(host, handle);

  // Dispatch fires callbacks in subscription order, and the service
  // subscribed first: by the time any later epoch-end observer runs, the
  // service has already swapped in the epoch's snapshot.
  int observed = 0;
  host.on_epoch_end(handle, [&](const host::EpochEvent& event) {
    const auto pinned = service.acquire();
    EXPECT_EQ(pinned.epoch(), event.epoch);
    EXPECT_EQ(pinned.snapshot().total_rewirings(), event.total_rewirings);
    ++observed;
  });
  host.run_epochs(handle, 4);
  EXPECT_EQ(observed, 4);
}

TEST(RouteServiceConcurrency, AcquireIsValidBeforeAnyEpoch) {
  host::OverlayHost host(12, 9);
  const auto handle = host.deploy(br_spec(13));
  host::RouteService service(host, handle);
  const auto pinned = service.acquire();
  ASSERT_TRUE(pinned.valid());
  EXPECT_EQ(pinned.epoch(), 0);
  EXPECT_EQ(pinned.publish_seq(), 1u);
  EXPECT_EQ(service.stats().swaps, 0u);
  // The bootstrap wiring is already queryable.
  const auto answer = pinned.route(0, 1);
  EXPECT_EQ(answer.epoch, 0);
}

/// A churned BR overlay over 60 s epochs, for the row-cache cases.
host::OverlayHandle deploy_churned(host::OverlayHost& host, std::size_t nodes,
                                   int epochs, std::uint64_t seed) {
  churn::ChurnConfig churn_config;
  churn_config.timescale = 0.05;
  churn_config.initial_on_fraction = 0.8;
  churn::ChurnTrace trace(nodes, epochs * 60.0, seed, churn_config);
  return host.deploy(br_spec(seed).epoch_period(60.0).churn(trace));
}

host::RouteService::Options row_cap(std::size_t max_cached_sources) {
  host::RouteService::Options options;
  options.max_cached_sources = max_cached_sources;
  return options;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(RouteServiceConcurrency, RowCacheCapFallsBackToTransientRows) {
  constexpr std::size_t kNodes = 24;
  host::OverlayHost host(kNodes, 9);
  const auto handle = deploy_churned(host, kNodes, 4, 13);
  // Three services over the same epoch ends: no rows, two rows, every row.
  host::RouteService uncached(host, handle, row_cap(0));
  host::RouteService capped(host, handle, row_cap(2));
  host::RouteService cached(host, handle, row_cap(kNodes));
  host.run_epochs(handle, 4);

  const auto reference = cached.acquire();
  const auto& snap = reference.snapshot();
  const auto n = static_cast<graph::NodeId>(kNodes);
  std::uint64_t online_pairs = 0, reachable = 0;
  for (graph::NodeId src = 0; src < n; ++src) {
    for (graph::NodeId dst = 0; dst < n; ++dst) {
      if (src == dst || !snap.is_online(src) || !snap.is_online(dst)) continue;
      ++online_pairs;
      if (reference.route(src, dst).reachable) ++reachable;
    }
  }
  // The overlay is churned (some nodes offline) yet mostly connected.
  EXPECT_LT(online_pairs, kNodes * (kNodes - 1));
  EXPECT_GT(reachable, online_pairs / 2);

  for (const auto* service : {&uncached, &capped}) {
    const auto pinned = service->acquire();
    ASSERT_EQ(pinned.epoch(), reference.epoch());
    ASSERT_EQ(pinned.publish_seq(), reference.publish_seq());
    for (graph::NodeId src = 0; src < n; ++src) {
      for (graph::NodeId dst = 0; dst < n; ++dst) {
        // Transient answers equal cached answers, bit for bit.
        const auto route = pinned.route(src, dst);
        const auto want_route = reference.route(src, dst);
        ASSERT_EQ(route.reachable, want_route.reachable) << src << "->" << dst;
        ASSERT_EQ(route.next_hop, want_route.next_hop) << src << "->" << dst;
        ASSERT_EQ(bits(route.cost), bits(want_route.cost))
            << src << "->" << dst;
        ASSERT_EQ(route.epoch, want_route.epoch);
        ASSERT_EQ(route.publish_seq, want_route.publish_seq);
        const auto path = pinned.path(src, dst);
        const auto want_path = reference.path(src, dst);
        ASSERT_EQ(path.reachable, want_path.reachable) << src << "->" << dst;
        ASSERT_EQ(path.nodes, want_path.nodes) << src << "->" << dst;
        ASSERT_EQ(bits(path.cost), bits(want_path.cost)) << src << "->" << dst;
        ASSERT_EQ(path.epoch, want_path.epoch);
        ASSERT_EQ(path.publish_seq, want_path.publish_seq);
      }
    }
  }

  // Every online src != dst query past the cap searched instead of caching.
  EXPECT_EQ(uncached.stats().rows_built, 0u);
  // One route and one path per online pair.
  EXPECT_EQ(uncached.stats().uncached_queries, 2 * online_pairs);
  EXPECT_LE(capped.stats().rows_built, 2u);  // single thread: the cap is exact
  EXPECT_GT(capped.stats().uncached_queries, 0u);
  EXPECT_EQ(cached.stats().uncached_queries, 0u);
}

TEST(RouteServiceConcurrency, UncachedAnswersUnderChurnMatchDijkstraOnTheirView) {
  // Four readers answer every query past the row cache (cap 0), so each
  // runs the per-thread search over the pinned view's CSR while the host
  // publishes churned epochs. Each answer is checked against graph::dijkstra
  // on the announced graph of the view that answered it.
  constexpr std::size_t kNodes = 32;
  constexpr int kReaders = 4;
  constexpr int kEpochs = 6;
  host::OverlayHost host(kNodes, 41);
  const auto handle = deploy_churned(host, kNodes, kEpochs, 43);
  host::RouteService service(host, handle, row_cap(0));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answers{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::vector<std::uint64_t>> seqs(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      util::Rng rng(500 + static_cast<std::uint64_t>(r));
      auto& seen = seqs[static_cast<std::size_t>(r)];
      while (!stop.load(std::memory_order_relaxed)) {
        const auto src = static_cast<graph::NodeId>(
            rng.uniform_int(0, static_cast<std::int64_t>(kNodes) - 1));
        const auto dst = static_cast<graph::NodeId>(
            rng.uniform_int(0, static_cast<std::int64_t>(kNodes) - 1));
        const auto pinned = service.acquire();
        const auto route = pinned.route(src, dst);
        const auto path = pinned.path(src, dst);
        if (seen.empty() || seen.back() != pinned.publish_seq()) {
          seen.push_back(pinned.publish_seq());
        }
        const auto& snap = pinned.snapshot();
        bool ok = route.publish_seq == pinned.publish_seq() &&
                  path.publish_seq == pinned.publish_seq();
        if (snap.is_online(src) && snap.is_online(dst) && src != dst) {
          const auto tree = graph::dijkstra(snap.announced_graph(), src);
          const auto want = graph::extract_path(tree, src, dst);
          const double cost = tree.dist[static_cast<std::size_t>(dst)];
          ok = ok && route.reachable == !want.empty() &&
               path.reachable == !want.empty() && path.nodes == want &&
               bits(route.cost) == bits(cost) &&
               bits(path.cost) == bits(cost) &&
               route.next_hop == (want.empty() ? -1 : want[1]);
        }
        if (!ok) mismatches.fetch_add(1, std::memory_order_relaxed);
        answers.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Let every publication serve answers before the next one replaces it.
  const auto wait_for_answers = [&](std::uint64_t more) {
    const auto target = answers.load() + more;
    while (answers.load() < target) std::this_thread::yield();
  };
  wait_for_answers(2 * kReaders);
  for (int e = 0; e < kEpochs; ++e) {
    host.run_epochs(handle, 1);
    wait_for_answers(2 * kReaders);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(mismatches.load(), 0u);
  std::vector<std::uint64_t> distinct;
  for (const auto& seen : seqs) {
    distinct.insert(distinct.end(), seen.begin(), seen.end());
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  EXPECT_GE(distinct.size(), 2u);  // answers span several publications
  const auto stats = service.stats();
  EXPECT_EQ(stats.rows_built, 0u);
  EXPECT_GT(stats.uncached_queries, 0u);
  EXPECT_EQ(stats.seal_violations, 0u);
}

// --- Serve-while-epoching determinism (the lockstep satellite) ---

class ServeDeterminism : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ServeDeterminism, TrajectoriesIdenticalWithAndWithoutReaders) {
  const auto [workers, incremental] = GetParam();
  DeterminismCase c;
  c.nodes = 14;
  c.host_seed = 11;
  c.epochs = 5;
  overlay::OverlayConfig config;
  config.policy = overlay::Policy::kBestResponse;
  config.metric = overlay::Metric::kDelayPing;
  config.k = 3;
  config.seed = 29;
  config.epoch_workers = workers;
  config.incremental = incremental;
  // Dense mode takes no workers: the pooled instances run §5 scale mode,
  // so pool threads evaluate beside the readers.
  if (workers > 0) {
    config.br_sample = 6;
    config.br_landmarks = 8;
  }
  c.spec = host::OverlaySpec(config);

  const auto baseline = record_trajectory(c);
  const auto served = record_trajectory(c, /*serve_readers=*/2);
  expect_same_trajectory(baseline, served,
                         "workers=" + std::to_string(workers) +
                             " incremental=" + std::to_string(incremental));
}

INSTANTIATE_TEST_SUITE_P(
    WorkersByIncremental, ServeDeterminism,
    ::testing::Combine(::testing::Values(0, 2, 4),
                       ::testing::Values(false, true)));

}  // namespace
}  // namespace egoist
