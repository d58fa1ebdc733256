// Shared trajectory-determinism harness.
//
// Several suites prove the same property from different angles: two runs
// that should be indistinguishable (different epoch worker count, shared
// vs solo host, served vs unserved) must produce bit-identical
// wiring trajectories and scores. This harness is the common vocabulary:
// describe a deployment as a DeterminismCase, record its full Trajectory
// (per-epoch wirings, scores, re-wiring counts), and compare records with
// expect_same_trajectory for a field-by-field diagnostic on divergence.
//
// Recording drives the deployment through host::OverlayHost epoch by
// epoch, so synchronized, staggered-T/n, and churned schedules all replay
// exactly as the experiment layer runs them.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "churn/churn.hpp"
#include "host/overlay_host.hpp"
#include "host/route_service.hpp"
#include "util/rng.hpp"

namespace egoist::testing {

/// One reproducible deployment: a spec on a host with a fixed substrate.
struct DeterminismCase {
  std::size_t nodes = 14;
  std::uint64_t host_seed = 11;
  overlay::EnvironmentConfig env;
  host::OverlaySpec spec;
  int epochs = 5;
};

/// Everything observable about a run, epoch by epoch.
struct Trajectory {
  /// wirings[e][v] = node v's wiring after epoch e (offline nodes empty).
  std::vector<std::vector<std::vector<graph::NodeId>>> wirings;
  /// online[e] = the online set after epoch e.
  std::vector<std::vector<graph::NodeId>> online;
  /// costs[e] = per-node scores after epoch e (routing cost, bit-exact).
  std::vector<std::vector<double>> costs;
  /// rewirings[e] = cumulative engine re-wiring count after epoch e.
  std::vector<std::uint64_t> rewirings;
};

/// Records the deployment's trajectory. With `serve_readers > 0`, a
/// host::RouteService is attached and that many reader threads hammer
/// route/path/score queries for the whole run — the serve-while-epoching
/// lockstep check: queries are pure reads over published snapshots, so the
/// recorded trajectory must be bit-identical to a run with no readers.
inline Trajectory record_trajectory(const DeterminismCase& c,
                                    int serve_readers = 0) {
  host::OverlayHost host(c.nodes, c.host_seed, c.env);
  const auto handle = host.deploy(c.spec);

  std::unique_ptr<host::RouteService> service;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  if (serve_readers > 0) {
    service = std::make_unique<host::RouteService>(host, handle);
    for (int r = 0; r < serve_readers; ++r) {
      readers.emplace_back([&, r] {
        util::Rng rng(0xD15E4Dull + static_cast<std::uint64_t>(r));
        const auto n = static_cast<std::int64_t>(c.nodes);
        while (!stop.load(std::memory_order_relaxed)) {
          const auto src = static_cast<graph::NodeId>(rng.uniform_int(0, n - 1));
          const auto dst = static_cast<graph::NodeId>(rng.uniform_int(0, n - 1));
          const auto pinned = service->acquire();
          (void)pinned.route(src, dst);
          (void)pinned.path(src, dst);
          (void)pinned.score(src);
        }
      });
    }
  }

  Trajectory out;
  for (int epoch = 0; epoch < c.epochs; ++epoch) {
    host.run_epochs(handle, 1);
    const auto snap = host.snapshot(handle);
    std::vector<std::vector<graph::NodeId>> wirings;
    wirings.reserve(c.nodes);
    for (std::size_t v = 0; v < c.nodes; ++v) {
      wirings.push_back(snap.wiring(static_cast<int>(v)));
    }
    out.wirings.push_back(std::move(wirings));
    out.online.push_back(snap.online_nodes());
    out.costs.push_back(c.spec.config().metric == overlay::Metric::kBandwidth
                            ? snap.node_bandwidth_scores()
                            : snap.node_costs());
    out.rewirings.push_back(snap.total_rewirings());
  }

  if (serve_readers > 0) {
    stop.store(true, std::memory_order_relaxed);
    for (auto& reader : readers) reader.join();
    service.reset();  // unsubscribes + final reclaim before the host dies
  }
  return out;
}

/// FNV-1a (64-bit) over everything a Trajectory records: per epoch the
/// online set, every node's wiring, the bit patterns of the scores, and the
/// cumulative re-wiring count. Equal digests mean bit-identical
/// trajectories (up to hash collisions), so a recorded digest pins a
/// trajectory without keeping the code that produced it.
inline std::uint64_t digest(const Trajectory& t) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  };
  const auto mix_ids = [&mix](const std::vector<graph::NodeId>& ids) {
    mix(ids.size());
    for (const auto id : ids) mix(static_cast<std::uint64_t>(id));
  };
  mix(t.wirings.size());
  for (std::size_t e = 0; e < t.wirings.size(); ++e) {
    mix_ids(t.online[e]);
    mix(t.wirings[e].size());
    for (const auto& wiring : t.wirings[e]) mix_ids(wiring);
    mix(t.costs[e].size());
    for (const double cost : t.costs[e]) mix(std::bit_cast<std::uint64_t>(cost));
    mix(t.rewirings[e]);
  }
  return h;
}

/// Bit-identical comparison with a per-epoch, per-node diagnostic.
inline void expect_same_trajectory(const Trajectory& expected,
                                   const Trajectory& actual,
                                   const std::string& label) {
  ASSERT_EQ(expected.wirings.size(), actual.wirings.size())
      << label << ": epoch count";
  for (std::size_t e = 0; e < expected.wirings.size(); ++e) {
    ASSERT_EQ(expected.online[e], actual.online[e])
        << label << ": online set diverged at epoch " << e;
    ASSERT_EQ(expected.wirings[e].size(), actual.wirings[e].size());
    for (std::size_t v = 0; v < expected.wirings[e].size(); ++v) {
      ASSERT_EQ(expected.wirings[e][v], actual.wirings[e][v])
          << label << ": wiring of node " << v << " diverged at epoch " << e;
    }
    ASSERT_EQ(expected.costs[e], actual.costs[e])
        << label << ": scores diverged at epoch " << e;
    ASSERT_EQ(expected.rewirings[e], actual.rewirings[e])
        << label << ": re-wiring count diverged at epoch " << e;
  }
}

}  // namespace egoist::testing
