#include "exp/common.hpp"

#include <stdexcept>

namespace egoist::exp {

std::vector<double> snapshot_scores(const host::WiringSnapshot& snapshot,
                                    Score score) {
  switch (score) {
    case Score::kRoutingCost: return snapshot.node_costs();
    case Score::kBandwidth: return snapshot.node_bandwidth_scores();
    case Score::kEfficiency: return snapshot.node_efficiencies();
  }
  throw std::logic_error("unknown score");
}

std::vector<RunResult> run_and_score(host::OverlayHost& host,
                                     const std::vector<host::OverlayHandle>& overlays,
                                     Score score, const RunOptions& options) {
  const int total = options.warmup_epochs + options.sample_epochs;

  struct Accumulator {
    std::vector<double> sums;
    std::vector<int> counts;
    int rewirings = 0;
    int epoch = 0;  ///< epochs seen by this run (not the overlay's lifetime)
  };
  std::vector<Accumulator> accs(overlays.size());
  for (auto& acc : accs) {
    acc.sums.assign(host.size(), 0.0);
    acc.counts.assign(host.size(), 0);
  }

  std::vector<host::SubscriptionId> subscriptions;
  subscriptions.reserve(overlays.size());
  for (std::size_t i = 0; i < overlays.size(); ++i) {
    subscriptions.push_back(host.on_epoch_end(
        overlays[i], [&host, &accs, &options, total, score,
                      i](const host::EpochEvent& event) {
          auto& acc = accs[i];
          ++acc.epoch;
          // Warmup epochs are discarded; epochs beyond the sampling window
          // (possible when concurrent overlays are driven past this one's
          // target) are ignored.
          if (acc.epoch <= options.warmup_epochs || acc.epoch > total) return;
          acc.rewirings += event.rewired;
          const auto snapshot = host.snapshot(event.overlay);
          const auto& online = snapshot.online_nodes();
          const auto scores = snapshot_scores(snapshot, score);
          for (std::size_t j = 0; j < online.size(); ++j) {
            acc.sums[static_cast<std::size_t>(online[j])] += scores[j];
            acc.counts[static_cast<std::size_t>(online[j])] += 1;
          }
        }));
  }

  // Each overlay runs `total` epochs beyond its state at call time; the
  // subscription counts epochs locally, so earlier host activity does not
  // shift the sampling window. Driving one overlay advances the others at
  // the same timestamps, so later iterations only mop up stragglers.
  for (std::size_t i = 0; i < overlays.size(); ++i) {
    if (accs[i].epoch < total) host.run_epochs(overlays[i], total - accs[i].epoch);
  }
  for (const auto id : subscriptions) host.unsubscribe(id);

  std::vector<RunResult> results;
  results.reserve(overlays.size());
  for (const auto& acc : accs) {
    RunResult result;
    for (std::size_t v = 0; v < acc.sums.size(); ++v) {
      if (acc.counts[v] > 0) {
        result.node_means.push_back(acc.sums[v] / acc.counts[v]);
      }
    }
    result.summary = util::Summary::of(result.node_means);
    result.rewirings_per_epoch =
        options.sample_epochs > 0
            ? static_cast<double>(acc.rewirings) / options.sample_epochs
            : 0.0;
    results.push_back(std::move(result));
  }
  return results;
}

RunResult run_and_score(host::OverlayHost& host, host::OverlayHandle overlay,
                        Score score, const RunOptions& options) {
  return run_and_score(host, std::vector<host::OverlayHandle>{overlay}, score,
                       options)
      .front();
}

RunResult run_single(std::size_t n, std::uint64_t env_seed,
                     const overlay::OverlayConfig& config, Score score,
                     const RunOptions& options) {
  return run_single(n, env_seed, overlay::EnvironmentConfig{}, config, score,
                    options);
}

RunResult run_single(std::size_t n, std::uint64_t env_seed,
                     const overlay::EnvironmentConfig& env_config,
                     const overlay::OverlayConfig& config, Score score,
                     const RunOptions& options) {
  host::OverlayHost host(n, env_seed, env_config);
  const auto overlay = host.deploy(
      host::OverlaySpec(config).epoch_period(options.epoch_seconds));
  return run_and_score(host, overlay, score, options);
}

overlay::EnvironmentConfig parse_underlay(const ParamReader& params) {
  overlay::EnvironmentConfig env;
  env.underlay =
      net::parse_underlay_kind(params.get_string("underlay", "dense"));
  return env;
}

CommonArgs CommonArgs::parse(const ParamReader& params, unsigned knobs) {
  CommonArgs args;
  args.n = static_cast<std::size_t>(params.get_int("n", static_cast<int>(args.n)));
  args.seed = params.get_seed("seed", args.seed);
  if (knobs & kWarmup) args.warmup = params.get_int("warmup", args.warmup);
  if (knobs & kSample) args.sample = params.get_int("sample", args.sample);
  if (knobs & kKRange) {
    args.k_min = params.get_int("k-min", args.k_min);
    args.k_max = params.get_int("k-max", args.k_max);
    if (args.k_min < 1 || args.k_max < args.k_min) {
      throw std::invalid_argument("need 1 <= k-min <= k-max");
    }
  }
  return args;
}

RunOptions CommonArgs::run_options() const {
  RunOptions options;
  options.warmup_epochs = warmup;
  options.sample_epochs = sample;
  return options;
}

}  // namespace egoist::exp
