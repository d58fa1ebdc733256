// Fig 10: available-bandwidth gain from multipath transfer.
//
// Over a bandwidth-metric BR overlay (per k), every source-target pair is
// evaluated two ways: (a) k parallel sessions through the source's
// first-hop neighbors vs the single IP-path session, and (b) the
// theoretical bound when every peer allows redirection (max-flow over the
// overlay, capped by the source's aggregate peering capacity) vs the IP
// path. Per-session shaping at AS peering points is what multipath evades.
#include "apps/multipath.hpp"
#include "exp/common.hpp"
#include "exp/experiments/experiments.hpp"

namespace egoist::exp {

void run_fig10_multipath_bw(const ParamReader& params, ResultSink& sink) {
  const auto args =
      CommonArgs::parse(params, CommonArgs::kWarmup | CommonArgs::kKRange);
  const double session_cap = params.get_double("session-cap", 2.0);
  const int min_providers = params.get_int("min-providers", 2);
  const int max_providers = params.get_int("max-providers", 5);

  sink.section(
      "Fig 10: available bandwidth gain, n=" + std::to_string(args.n),
      "Mean gain over all source-target pairs (95% CI) vs k: parallel "
      "first-hop sessions and the all-peers-redirect max-flow bound, both "
      "normalized by the single IP-path rate.");

  const net::PeeringModel peering(args.n, args.seed ^ 0xA5u, min_providers,
                                  max_providers, session_cap);

  util::Table table({"k", "parallel gain", "ci95", "max-flow gain", "ci95"});
  for (int k = args.k_min; k <= args.k_max; ++k) {
    overlay::OverlayConfig config;
    config.policy = overlay::Policy::kBestResponse;
    config.metric = overlay::Metric::kBandwidth;
    config.k = static_cast<std::size_t>(k);
    config.seed = args.seed ^ static_cast<std::uint64_t>(k);
    host::OverlayHost deployment(args.n, args.seed);
    const auto overlay = deployment.deploy(host::OverlaySpec(config));
    deployment.run_epochs(overlay, args.warmup);
    const auto snapshot = deployment.snapshot(overlay);
    const auto& overlay_bw = snapshot.true_bandwidth_graph();
    const auto& bw = deployment.environment(overlay).bandwidth();

    std::vector<double> parallel_gains, maxflow_gains;
    for (int src = 0; src < static_cast<int>(args.n); ++src) {
      for (int dst = 0; dst < static_cast<int>(args.n); ++dst) {
        if (src == dst) continue;
        const double ip = apps::ip_path_rate(bw, peering, src, dst);
        if (ip <= 0.0) continue;
        const auto parallel =
            apps::parallel_transfer(overlay_bw, bw, peering, src, dst);
        parallel_gains.push_back(parallel.total_rate / ip);
        maxflow_gains.push_back(apps::maxflow_rate(overlay_bw, peering, src, dst) /
                                ip);
      }
    }
    const auto p = util::Summary::of(parallel_gains);
    const auto m = util::Summary::of(maxflow_gains);
    table.add_numeric_row(
        {static_cast<double>(k), p.mean, p.ci95, m.mean, m.ci95}, 3);
  }
  sink.table("gain_vs_k", table);
}

}  // namespace egoist::exp
