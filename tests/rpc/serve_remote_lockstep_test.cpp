// Out-of-process serving must be invisible to the simulation: an overlay
// with an rpc::Server attached — remote clients hammering route/path/score
// over real sockets while epochs run — must produce a wiring trajectory
// bit-identical to the same deployment with no serving stack at all.
// Queries are pure reads over published snapshots and the epoch engine's
// RNG streams never observe the socket layer; any divergence means serving
// leaked into the simulation (a nondeterministic read of mutable state, a
// shared RNG, a reclaim reordering epochs).
//
// This is the socket-transport completion of the in-process lockstep check
// in tests/host/route_service_test.cpp, run across worker counts and the
// incremental engine, under churn. The TSan CI job runs this suite too.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../overlay/determinism_harness.hpp"
#include "churn/churn.hpp"
#include "host/overlay_host.hpp"
#include "host/route_service.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "util/rng.hpp"

namespace egoist {
namespace {

using testing::DeterminismCase;
using testing::Trajectory;
using testing::expect_same_trajectory;
using testing::record_trajectory;

/// `br_sample` > 0 deploys §5 scale mode (6 landmarks); incremental scale
/// runs use tolerance mode (drift 0.05).
DeterminismCase churned_br_case(int workers, bool incremental,
                                std::size_t br_sample = 0) {
  DeterminismCase c;
  c.nodes = 16;
  c.host_seed = 21;
  c.epochs = 6;
  overlay::OverlayConfig config;
  config.policy = overlay::Policy::kBestResponse;
  config.metric = overlay::Metric::kDelayPing;
  config.k = 3;
  config.seed = 5;
  config.epoch_workers = workers;
  config.incremental = incremental;
  config.br_sample = br_sample;
  config.br_landmarks = 6;
  if (br_sample > 0 && incremental) config.drift_threshold = 0.05;
  churn::ChurnConfig churn_config;
  churn_config.timescale = 0.05;
  churn_config.initial_on_fraction = 0.9;
  churn::ChurnTrace trace(c.nodes, c.epochs * 60.0, 31, churn_config);
  c.spec = host::OverlaySpec(config).epoch_period(60.0).churn(trace);
  return c;
}

/// record_trajectory's socket twin: same epoch-by-epoch recording, but the
/// reader load arrives through a live rpc::Server — TCP and UDS clients in
/// their own threads, pipelined, simple, and BATCH_ROUTE calls mixed.
/// `loops` picks the server's event-loop count: the multi-loop fan-out must
/// be just as invisible to the simulation as the single loop.
Trajectory record_trajectory_with_server(const DeterminismCase& c,
                                         int remote_clients, int loops = 1) {
  host::OverlayHost host(c.nodes, c.host_seed, c.env);
  const auto handle = host.deploy(c.spec);
  host::RouteService service(host, handle);

  rpc::ServerOptions options;
  options.tcp_port = 0;
  options.uds_path = "/tmp/egoist_lockstep_" + std::to_string(::getpid()) +
                     ".sock";
  options.loops = loops;
  rpc::Server server(service, options);
  server.start();

  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int r = 0; r < remote_clients; ++r) {
    clients.emplace_back([&, r] {
      auto client = r % 2 == 0
                        ? rpc::Client::connect_uds(server.uds_path())
                        : rpc::Client::connect_tcp("127.0.0.1",
                                                   server.tcp_port());
      util::Rng rng(0xD15E4Dull + static_cast<std::uint64_t>(r));
      const auto n = static_cast<std::int64_t>(c.nodes);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto src = static_cast<std::int32_t>(rng.uniform_int(0, n - 1));
        const auto dst = static_cast<std::int32_t>(rng.uniform_int(0, n - 1));
        client.post_route(src, dst);
        client.post_path(src, dst);
        client.post_score(src);
        client.post_route_batch({{src, dst}, {dst, src}});
        client.flush();
        (void)client.take_route();
        (void)client.take_path();
        (void)client.take_score();
        (void)client.take_route_batch();
      }
    });
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
    out.costs.push_back(snap.node_costs());
    out.rewirings.push_back(snap.total_rewirings());
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& client : clients) client.join();
  server.stop();
  EXPECT_TRUE(service.drain(10.0));
  EXPECT_EQ(service.stats().seal_violations, 0u);
  return out;
}

TEST(ServeRemoteLockstep, SocketServingLeavesTrajectoriesBitIdentical) {
  // Dense at workers 0, and scale mode on a pool of 2 workers (dense mode
  // takes no workers).
  for (const int workers : {0, 2}) {
    for (const bool incremental : {false, true}) {
      const auto c =
          churned_br_case(workers, incremental, workers > 0 ? 4 : 0);
      const auto base_label = "workers=" + std::to_string(workers) +
                              " incremental=" + (incremental ? "on" : "off");
      const auto quiet = record_trajectory(c);
      for (const int loops : {1, 4}) {
        const auto served = record_trajectory_with_server(c, 4, loops);
        expect_same_trajectory(quiet, served,
                               base_label + " loops=" + std::to_string(loops) +
                                   " [rpc::Server attached]");
      }
    }
  }
}

TEST(ServeRemoteLockstep, ScaleModeServedAtFourWorkersWalksTheInlineEpoch) {
  // Scale mode has one epoch schedule, so `workers` only sets speed: a
  // churned deployment served at workers 4 must walk the unserved
  // workers-0 trajectory, full recompute and tolerance mode alike.
  for (const bool incremental : {false, true}) {
    const auto quiet = record_trajectory(churned_br_case(0, incremental, 4));
    const auto served =
        record_trajectory_with_server(churned_br_case(4, incremental, 4), 4);
    expect_same_trajectory(quiet, served,
                           std::string("scale mode incremental=") +
                               (incremental ? "on" : "off") +
                               " workers=4 [rpc::Server attached] vs "
                               "workers=0");
  }
}

TEST(ServeRemoteLockstep, ServedRunsAreRepeatable) {
  // Two socket-served runs of the same case agree with each other too —
  // the socket layer adds no run-to-run jitter to the simulation, even
  // with the multi-loop fan-out handing UDS connections across threads.
  const auto c = churned_br_case(2, true, 4);
  const auto first = record_trajectory_with_server(c, 2, 4);
  const auto second = record_trajectory_with_server(c, 2, 4);
  expect_same_trajectory(first, second, "repeat [rpc::Server attached]");
}

}  // namespace
}  // namespace egoist
