// Figs 5-8: scalability via sampling (paper: n = 295, k = 3, r = 2).
//
// A base overlay is built incrementally with a base strategy (Fig 5: BR;
// Fig 6: k-Random; Fig 7: k-Regular; Fig 8: k-Closest). A newcomer then
// joins using each strategy restricted to a sample of m nodes (m = 6..20):
// k-Random / k-Regular / k-Closest with random sampling, BR with random
// sampling, and BRtp (BR with topology-biased sampling,
// b_ij = |F(v_j)| / sum_{u in F(v_j)} d(v_i, u), radius r).
//
// The series report the newcomer's realized cost (distance to all base
// destinations over the final graph) normalized by the cost of a newcomer
// running BR with NO sampling. The base size/degree/radius are scenario
// knobs (base-n, degree, radius) so smoke tests can shrink the experiment;
// the defaults reproduce the paper's figures.
#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/residual.hpp"
#include "core/sampling.hpp"
#include "exp/common.hpp"
#include "exp/experiments/experiments.hpp"
#include "net/delay_space.hpp"

namespace egoist::exp {

namespace {

using core::NodeId;

enum class Base { kBr, kRandom, kRegular, kClosest };

const char* base_name(Base base) {
  switch (base) {
    case Base::kBr: return "BR";
    case Base::kRandom: return "k-Random";
    case Base::kRegular: return "k-Regular";
    case Base::kClosest: return "k-Closest";
  }
  return "?";
}

/// Geometry of one figure run: base overlay size, newcomer degree budget,
/// biased-sampling radius, and the swept sample sizes.
struct SamplingSetup {
  std::size_t base_nodes = 295;
  std::size_t degree = 3;
  int radius = 2;
  std::size_t m_min = 6;
  std::size_t m_max = 20;
  std::size_t m_step = 2;
};

/// Direct (true) delays from `src` to every node id < total.
std::vector<double> direct_delays(const net::DelaySpace& delays, NodeId src,
                                  std::size_t total) {
  std::vector<double> out(total, 0.0);
  for (std::size_t v = 0; v < total; ++v) {
    if (static_cast<NodeId>(v) != src) out[v] = delays.delay(src, static_cast<int>(v));
  }
  return out;
}

/// Builds the base graph (node setup.base_nodes stays inactive) with the
/// given strategy. Graph weights are true delays. Overlay connections are
/// TCP, hence usable in both directions (with direction-specific costs):
/// wiring v -> w also installs w -> v, which keeps incrementally built
/// graphs strongly connected (otherwise all edges would point backward in
/// join order and late joiners would be unreachable).
graph::Digraph build_base(Base base, const SamplingSetup& setup,
                          const net::DelaySpace& delays, util::Rng& rng) {
  const std::size_t base_nodes = setup.base_nodes;
  graph::Digraph g(base_nodes + 1);
  g.set_active(static_cast<NodeId>(base_nodes), false);
  auto wire = [&](NodeId v, const std::vector<NodeId>& links) {
    for (NodeId w : links) {
      g.set_edge(v, w, delays.delay(v, w));
      g.set_edge(w, v, delays.delay(w, v));
    }
  };
  switch (base) {
    case Base::kBr: {
      // Incremental construction: only nodes 0..j-1 are active when j joins.
      for (std::size_t v = 1; v < base_nodes; ++v) {
        g.set_active(static_cast<NodeId>(v), false);
      }
      graph::PathEngine engine;  // re-snapshotted per joiner, buffers reused
      graph::PathEngine::QueryScratch query;
      for (std::size_t j = 1; j < base_nodes; ++j) {
        const auto self = static_cast<NodeId>(j);
        g.set_active(self, true);
        engine.rebuild(g);
        engine.prepare_shortest();
        const auto direct = direct_delays(delays, self, base_nodes + 1);
        const auto objective = core::make_delay_objective(
            engine, query, self, direct, std::nullopt,
            core::default_unreachable_penalty(g));
        core::BestResponseOptions options;
        options.exact_budget = 0;
        const auto br = core::best_response(objective, setup.degree, options);
        wire(self, br.wiring);
      }
      break;
    }
    case Base::kRandom: {
      std::vector<NodeId> all(base_nodes);
      std::iota(all.begin(), all.end(), 0);
      for (std::size_t v = 0; v < base_nodes; ++v) {
        std::vector<NodeId> candidates;
        for (NodeId w : all) {
          if (w != static_cast<NodeId>(v)) candidates.push_back(w);
        }
        wire(static_cast<NodeId>(v),
             core::select_k_random(candidates, setup.degree, rng));
      }
      break;
    }
    case Base::kRegular: {
      for (std::size_t v = 0; v < base_nodes; ++v) {
        wire(static_cast<NodeId>(v),
             core::select_k_regular(static_cast<NodeId>(v), base_nodes,
                                    setup.degree));
      }
      break;
    }
    case Base::kClosest: {
      std::vector<NodeId> all(base_nodes);
      std::iota(all.begin(), all.end(), 0);
      for (std::size_t v = 0; v < base_nodes; ++v) {
        std::vector<NodeId> candidates;
        for (NodeId w : all) {
          if (w != static_cast<NodeId>(v)) candidates.push_back(w);
        }
        wire(static_cast<NodeId>(v),
             core::select_k_closest(
                 candidates, direct_delays(delays, static_cast<NodeId>(v),
                                           base_nodes + 1),
                 setup.degree));
      }
      break;
    }
  }
  return g;
}

/// The base overlay as the newcomer sees it. The newcomer is active but
/// has no out-edges yet, so its residual view equals the base: one engine
/// snapshot with prepared base trees serves every query, `residual`
/// carries the borrowed residual matrix across calls, and `penalty` is the
/// base graph's fold penalty.
struct BaseView {
  graph::PathEngine engine;
  graph::PathEngine::QueryScratch query;
  graph::DistanceMatrix residual;
  double penalty = 0.0;
};

/// The newcomer's realized cost: mean distance to all base nodes over the
/// base graph + the chosen wiring (full-information evaluation).
double newcomer_cost(BaseView& base, std::size_t base_nodes,
                     const std::vector<double>& direct,
                     const std::vector<NodeId>& wiring) {
  const auto self = static_cast<NodeId>(base_nodes);
  const auto objective =
      core::make_delay_objective(base.engine, base.query, self, direct,
                                 std::nullopt, base.penalty, &base.residual);
  return objective.cost(wiring);
}

struct SampledCosts {
  double k_random = 0.0;
  double k_regular = 0.0;
  double k_closest = 0.0;
  double br = 0.0;
  double brtp = 0.0;
};

/// One trial of all sampled strategies at sample size m.
SampledCosts sampled_trial(BaseView& base, const SamplingSetup& setup,
                           const std::vector<double>& direct, std::size_t m,
                           util::Rng& rng) {
  const auto self = static_cast<NodeId>(setup.base_nodes);
  std::vector<NodeId> candidates(setup.base_nodes);
  std::iota(candidates.begin(), candidates.end(), 0);

  const auto sample = core::random_sample(candidates, m, rng);
  SampledCosts costs;
  // k-Random within the sample.
  costs.k_random =
      newcomer_cost(base, setup.base_nodes, direct,
                    core::select_k_random(sample, setup.degree, rng));
  // k-Regular within the sample: regular index offsets in the sorted sample.
  {
    std::vector<NodeId> wiring;
    const auto offsets = core::k_regular_offsets(sample.size() + 1, setup.degree);
    for (int o : offsets) {
      wiring.push_back(sample[static_cast<std::size_t>(o - 1) % sample.size()]);
    }
    std::sort(wiring.begin(), wiring.end());
    wiring.erase(std::unique(wiring.begin(), wiring.end()), wiring.end());
    costs.k_regular = newcomer_cost(base, setup.base_nodes, direct, wiring);
  }
  // k-Closest within the sample.
  costs.k_closest =
      newcomer_cost(base, setup.base_nodes, direct,
                    core::select_k_closest(sample, direct, setup.degree));
  // BR restricted to the sample (search on the sampled objective; evaluate
  // on the full one).
  core::BestResponseOptions options;
  options.exact_budget = 0;
  {
    const auto objective = core::make_sampled_delay_objective(
        base.engine, base.query, self, direct, sample, base.penalty);
    const auto br = core::best_response(objective, setup.degree, options);
    costs.br = newcomer_cost(base, setup.base_nodes, direct, br.wiring);
  }
  // BRtp: topology-biased sample over the CSR snapshot, then BR on it.
  {
    core::BiasedSamplingOptions bias;
    bias.radius = setup.radius;
    const auto biased = core::topology_biased_sample(
        base.engine.csr(), self, direct, candidates, m, rng, bias);
    const auto objective = core::make_sampled_delay_objective(
        base.engine, base.query, self, direct, biased, base.penalty);
    const auto br = core::best_response(objective, setup.degree, options);
    costs.brtp = newcomer_cost(base, setup.base_nodes, direct, br.wiring);
  }
  return costs;
}

void run_figure(Base base, int figure_number, const SamplingSetup& setup,
                const net::DelaySpace& delays, std::uint64_t seed, int trials,
                ResultSink& sink) {
  util::Rng rng(seed);
  auto base_graph = build_base(base, setup, delays, rng);
  const auto self = static_cast<NodeId>(setup.base_nodes);
  // The newcomer is present (active) but not yet wired; the base graph is
  // exactly its residual graph G_{-i}.
  base_graph.set_active(self, true);
  const auto direct = direct_delays(delays, self, setup.base_nodes + 1);

  BaseView view;
  view.engine.rebuild(base_graph);
  view.engine.prepare_shortest();
  view.penalty = core::default_unreachable_penalty(base_graph);

  // BR with no sampling: the normalization baseline.
  double baseline;
  {
    const auto objective = core::make_delay_objective(
        view.engine, view.query, self, direct, std::nullopt, view.penalty,
        &view.residual);
    core::BestResponseOptions options;
    options.exact_budget = 0;
    baseline = core::best_response(objective, setup.degree, options).cost;
  }

  sink.section(
      "Fig " + std::to_string(figure_number) + ": sampling on a " +
          base_name(base) + " graph (n=" + std::to_string(setup.base_nodes) +
          ", k=" + std::to_string(setup.degree) +
          ", r=" + std::to_string(setup.radius) + ")",
      "Newcomer's cost / BR-no-sampling cost vs sample size m.");
  util::Table table(
      {"m", "k-Random", "k-Regular", "k-Closest", "BR", "BRtp"});
  for (std::size_t m = setup.m_min; m <= setup.m_max; m += setup.m_step) {
    SampledCosts mean;
    for (int t = 0; t < trials; ++t) {
      const auto c = sampled_trial(view, setup, direct, m, rng);
      mean.k_random += c.k_random;
      mean.k_regular += c.k_regular;
      mean.k_closest += c.k_closest;
      mean.br += c.br;
      mean.brtp += c.brtp;
    }
    const double norm = baseline * trials;
    table.add_numeric_row({static_cast<double>(m), mean.k_random / norm,
                           mean.k_regular / norm, mean.k_closest / norm,
                           mean.br / norm, mean.brtp / norm},
                          3);
  }
  sink.table(std::string("fig") + std::to_string(figure_number), table);
  sink.text("\n");
}

}  // namespace

void run_fig5_8_sampling(const ParamReader& params, ResultSink& sink) {
  const auto seed = params.get_seed("seed", 42);
  const int trials = params.get_int("trials", 5);
  SamplingSetup setup;
  setup.base_nodes =
      static_cast<std::size_t>(params.get_int("base-n", static_cast<int>(setup.base_nodes)));
  setup.degree =
      static_cast<std::size_t>(params.get_int("degree", static_cast<int>(setup.degree)));
  setup.radius = params.get_int("radius", setup.radius);
  setup.m_min = static_cast<std::size_t>(params.get_int("m-min", static_cast<int>(setup.m_min)));
  setup.m_max = static_cast<std::size_t>(params.get_int("m-max", static_cast<int>(setup.m_max)));
  setup.m_step = static_cast<std::size_t>(params.get_int("m-step", static_cast<int>(setup.m_step)));
  if (setup.base_nodes < setup.m_max || setup.m_min < 1 || setup.m_step < 1 ||
      setup.m_max < setup.m_min || trials < 1) {
    throw std::invalid_argument(
        "need 1 <= m-min <= m-max <= base-n, m-step >= 1, trials >= 1");
  }

  const auto delays = net::make_planetlab_like(setup.base_nodes + 1, seed);
  run_figure(Base::kBr, 5, setup, delays, seed ^ 5u, trials, sink);
  run_figure(Base::kRandom, 6, setup, delays, seed ^ 6u, trials, sink);
  run_figure(Base::kRegular, 7, setup, delays, seed ^ 7u, trials, sink);
  run_figure(Base::kClosest, 8, setup, delays, seed ^ 8u, trials, sink);
}

}  // namespace egoist::exp
