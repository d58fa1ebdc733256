// Google-benchmark microbenchmarks for the algorithmic hot paths: the
// best-response local search, shortest/widest path computations, the
// scale-mode landmark rows, max-flow, LSA flooding and Vivaldi updates.
// These back the scalability discussion in Section 5 (local-search cost is
// the binding constraint at large n).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>

#include "core/policies.hpp"
#include "core/residual.hpp"
#include "core/sampling.hpp"
#include "coord/vivaldi.hpp"
#include "graph/csr_graph.hpp"
#include "graph/maxflow.hpp"
#include "graph/shortest_path.hpp"
#include "graph/widest_path.hpp"
#include "net/delay_space.hpp"
#include "proto/link_state.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace egoist;

/// Random k-out overlay over a PlanetLab-like delay space.
graph::Digraph make_overlay(std::size_t n, std::size_t k, std::uint64_t seed) {
  const auto delays = net::make_planetlab_like(n, seed);
  graph::Digraph g(n);
  util::Rng rng(seed ^ 0xFFu);
  std::vector<graph::NodeId> all(n);
  for (std::size_t v = 0; v < n; ++v) all[v] = static_cast<graph::NodeId>(v);
  for (std::size_t u = 0; u < n; ++u) {
    std::vector<graph::NodeId> candidates;
    for (auto v : all) {
      if (v != static_cast<graph::NodeId>(u)) candidates.push_back(v);
    }
    for (auto v : core::select_k_random(candidates, k, rng)) {
      g.set_edge(static_cast<graph::NodeId>(u), v,
                 delays.delay(static_cast<int>(u), v));
    }
  }
  return g;
}

void BM_Dijkstra(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = make_overlay(n, 4, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::dijkstra(g, 0));
  }
}
BENCHMARK(BM_Dijkstra)->Arg(50)->Arg(100)->Arg(295);

void BM_AllPairsShortestPaths(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = make_overlay(n, 4, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::all_pairs_shortest_paths(g));
  }
}
BENCHMARK(BM_AllPairsShortestPaths)->Arg(50)->Arg(100)->Arg(295);

void BM_PathEngineResidualAllPairs(benchmark::State& state) {
  // The BR hot path: residual all-pairs served from the engine's shared
  // base trees (compare with BM_AllPairsShortestPaths, which a residual
  // graph copy would pay per node per epoch).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = make_overlay(n, 4, 7);
  graph::PathEngine engine(g);
  engine.prepare_shortest();
  graph::PathEngine::QueryScratch query;
  graph::DistanceMatrix out;
  graph::NodeId exclude = 0;
  for (auto _ : state) {
    engine.all_shortest(exclude, out, query);
    benchmark::DoNotOptimize(out.row(0).data());
    exclude = static_cast<graph::NodeId>((exclude + 1) % static_cast<int>(n));
  }
}
BENCHMARK(BM_PathEngineResidualAllPairs)->Arg(50)->Arg(100)->Arg(295);

void BM_PathEngineRowUpdate(benchmark::State& state) {
  // The sequential-epoch mutation: one node re-announces, the engine
  // patches its base trees instead of rebuilding them.
  const auto n = static_cast<std::size_t>(state.range(0));
  auto g = make_overlay(n, 4, 7);
  graph::PathEngine engine(g);
  engine.prepare_shortest();
  graph::NodeId u = 0;
  for (auto _ : state) {
    engine.update_out_edges(u, g);
    u = static_cast<graph::NodeId>((u + 1) % static_cast<int>(n));
  }
}
BENCHMARK(BM_PathEngineRowUpdate)->Arg(50)->Arg(100)->Arg(295);

void BM_WidestPaths(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = make_overlay(n, 4, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::widest_paths(g, 0));
  }
}
BENCHMARK(BM_WidestPaths)->Arg(50)->Arg(295);

/// Random k-out overlay with weights uniform in [1, 200) ms. No delay
/// space: its n^2 values would dwarf the overlay at n = 5000.
graph::Digraph make_random_overlay(std::size_t n, std::size_t k,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  graph::Digraph g(n);
  for (std::size_t u = 0; u < n; ++u) {
    const auto uid = static_cast<graph::NodeId>(u);
    while (g.out_edges(uid).size() < k) {
      const auto v = static_cast<graph::NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      if (v != uid) g.set_edge(uid, v, rng.uniform(1.0, 200.0));
    }
  }
  return g;
}

void BM_LandmarkRows(benchmark::State& state) {
  // Scale mode's landmark refresh: every node's distance to 64 landmarks
  // over a k=10 overlay. searches=0 times one graph::paths_to pass over the
  // in-edges; searches=1 times what that pass replaced, one CsrSearch per
  // landmark on the reversed graph plus the strided copy into the n x 64
  // matrix. Both fill the same matrix bit for bit.
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool searches = state.range(1) != 0;
  const auto g = make_random_overlay(n, 10, 29);
  graph::Digraph reversed(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (const graph::Edge& e : g.out_edges(static_cast<graph::NodeId>(u))) {
      reversed.set_edge(e.to, static_cast<graph::NodeId>(u), e.weight);
    }
  }
  std::vector<graph::NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  util::Rng rng(31);
  auto landmarks =
      rng.sample_without_replacement(std::span<const graph::NodeId>(ids), 64);
  std::sort(landmarks.begin(), landmarks.end());

  const graph::CsrGraph in_csr(g, graph::CsrSides::kIn);
  const graph::CsrGraph reversed_csr(reversed, graph::CsrSides::kOut);
  graph::DistanceMatrix dist;
  graph::CsrSearch search;
  graph::PathsToStats stats;
  for (auto _ : state) {
    if (searches) {
      dist.reshape(n, landmarks.size());
      for (std::size_t c = 0; c < landmarks.size(); ++c) {
        search.run(reversed_csr, landmarks[c]);
        for (std::size_t v = 0; v < n; ++v) {
          dist(v, c) = search.dist(static_cast<graph::NodeId>(v));
        }
      }
    } else {
      stats = graph::paths_to(in_csr, landmarks, false, dist);
    }
    benchmark::DoNotOptimize(dist.row(0).data());
    benchmark::ClobberMemory();
  }
  if (!searches) {
    state.counters["rounds"] = static_cast<double>(stats.rounds);
    state.counters["relaxations_per_edge"] =
        static_cast<double>(stats.row_relaxations) /
        static_cast<double>(in_csr.edge_count());
  }
}
BENCHMARK(BM_LandmarkRows)
    ->ArgNames({"n", "searches"})
    ->Args({2000, 0})
    ->Args({2000, 1})
    ->Args({5000, 0})
    ->Args({5000, 1})
    ->Unit(benchmark::kMillisecond);

void BM_BestResponseLocalSearch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto delays = net::make_planetlab_like(n, 11);
  const auto g = make_overlay(n, 4, 11);
  std::vector<double> direct(n, 0.0);
  for (std::size_t v = 1; v < n; ++v) direct[v] = delays.delay(0, static_cast<int>(v));
  graph::PathEngine engine(g);
  engine.prepare_shortest();
  graph::PathEngine::QueryScratch query;
  const auto objective = core::make_delay_objective(
      engine, query, 0, direct, std::nullopt,
      core::default_unreachable_penalty(g));
  core::BestResponseOptions options;
  options.exact_budget = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::best_response(objective, k, options));
  }
}
BENCHMARK(BM_BestResponseLocalSearch)
    ->Args({50, 3})
    ->Args({50, 8})
    ->Args({100, 3})
    ->Args({295, 3});

void BM_BestResponseSampled(benchmark::State& state) {
  // Section 5's point: sampling caps the BR input size regardless of n.
  const std::size_t n = 295;
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto delays = net::make_planetlab_like(n, 13);
  const auto g = make_overlay(n, 3, 13);
  std::vector<double> direct(n, 0.0);
  for (std::size_t v = 1; v < n; ++v) direct[v] = delays.delay(0, static_cast<int>(v));
  std::vector<graph::NodeId> candidates;
  for (std::size_t v = 1; v < n; ++v) candidates.push_back(static_cast<graph::NodeId>(v));
  util::Rng rng(17);
  const auto sample = core::random_sample(candidates, m, rng);
  graph::PathEngine engine(g);
  graph::PathEngine::QueryScratch query;
  const auto objective = core::make_sampled_delay_objective(
      engine, query, 0, direct, sample, core::default_unreachable_penalty(g));
  core::BestResponseOptions options;
  options.exact_budget = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::best_response(objective, 3, options));
  }
}
BENCHMARK(BM_BestResponseSampled)->Arg(10)->Arg(20)->Arg(40);

void BM_MaxFlow(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = make_overlay(n, 5, 19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::edge_disjoint_paths(g, 0, static_cast<graph::NodeId>(n - 1)));
  }
}
BENCHMARK(BM_MaxFlow)->Arg(50)->Arg(295);

void BM_LsaFlood(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    proto::LinkStateProtocol proto(
        sim, n, [](proto::NodeId, proto::NodeId) { return 0.001; });
    for (std::size_t u = 0; u < n; ++u) {
      std::vector<proto::LinkEntry> links;
      for (int j = 1; j <= 4; ++j) {
        links.push_back({static_cast<proto::NodeId>((u + static_cast<std::size_t>(j)) % n), 1.0});
      }
      proto.set_links(static_cast<proto::NodeId>(u), std::move(links));
    }
    proto.originate(0);
    sim.run_until(10.0);
    benchmark::DoNotOptimize(proto.messages_sent());
  }
}
BENCHMARK(BM_LsaFlood)->Arg(50)->Arg(200);

void BM_VivaldiTick(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto delays = net::make_planetlab_like(n, 23);
  coord::VivaldiSystem vivaldi(delays, 23);
  for (auto _ : state) {
    vivaldi.tick();
  }
}
BENCHMARK(BM_VivaldiTick)->Arg(50)->Arg(295);

}  // namespace

BENCHMARK_MAIN();
