// Fig 11: number of edge-disjoint overlay paths between source and target
// vs k, over a delay-metric BR overlay — the redirection substrate for
// real-time (delay/loss-sensitive) traffic.
//
// As an extension (the experiment the paper defers to future work), the
// experiment also simulates redundant streaming over those disjoint paths
// and reports the in-deadline delivery ratio.
#include "apps/streaming.hpp"
#include "exp/common.hpp"
#include "exp/experiments/experiments.hpp"

namespace egoist::exp {

void run_fig11_disjoint_paths(const ParamReader& params, ResultSink& sink) {
  const auto args =
      CommonArgs::parse(params, CommonArgs::kWarmup | CommonArgs::kKRange);
  const int pairs = params.get_int("pairs", 200);

  sink.section(
      "Fig 11: disjoint paths, n=" + std::to_string(args.n),
      "Mean number of edge-disjoint overlay paths between random "
      "source-target pairs vs k (95% CI), plus the redundant-streaming "
      "delivery ratio over those paths (extension experiment).");

  util::Table table({"k", "disjoint paths", "ci95", "delivery ratio"});
  util::Rng pair_rng(args.seed ^ 0xD15u);
  for (int k = args.k_min; k <= args.k_max; ++k) {
    overlay::OverlayConfig config;
    config.policy = overlay::Policy::kBestResponse;
    config.metric = overlay::Metric::kDelayPing;
    config.k = static_cast<std::size_t>(k);
    config.seed = args.seed ^ static_cast<std::uint64_t>(k * 13);
    host::OverlayHost deployment(args.n, args.seed);
    const auto overlay = deployment.deploy(host::OverlaySpec(config));
    deployment.run_epochs(overlay, args.warmup);
    const auto snapshot = deployment.snapshot(overlay);
    const auto& g = snapshot.true_cost_graph();

    std::vector<double> counts;
    util::OnlineStats delivery;
    apps::StreamingConfig streaming;
    streaming.packets = 200;
    for (int p = 0; p < pairs; ++p) {
      const int src = static_cast<int>(pair_rng.uniform_int(0, args.n - 1));
      int dst = static_cast<int>(pair_rng.uniform_int(0, args.n - 2));
      if (dst >= src) ++dst;
      const int paths = apps::disjoint_path_count(g, src, dst);
      counts.push_back(static_cast<double>(paths));
      if (paths > 0) {
        const auto routes = apps::extract_disjoint_paths(g, src, dst, paths);
        if (!routes.empty()) {
          delivery.add(apps::simulate_redundant_streaming(g, routes, streaming,
                                                          pair_rng)
                           .delivery_ratio());
        }
      }
    }
    const auto s = util::Summary::of(counts);
    table.add_numeric_row(
        {static_cast<double>(k), s.mean, s.ci95, delivery.mean()}, 3);
  }
  sink.table("paths_vs_k", table);
}

}  // namespace egoist::exp
