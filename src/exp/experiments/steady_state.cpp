// steady_state: the generic sweep cell — one policy, one metric, one
// (n, k, seed) point. Deploys a single overlay on a fresh Environment,
// warms it up, samples the metric-appropriate score over the tail epochs
// and reports one row. Grids like "sweep.n = 50,100 / sweep.policy =
// BR,HybridBR" expand into independent cells of exactly this experiment,
// which is what the CI smoke sweep and the lockstep determinism test run.
#include <stdexcept>

#include "exp/common.hpp"
#include "exp/experiments/experiments.hpp"

namespace egoist::exp {

void run_steady_state(const ParamReader& params, ResultSink& sink) {
  overlay::OverlayConfig config;
  const auto n = static_cast<std::size_t>(params.get_int("n", 50));
  config.policy = overlay::parse_policy(params.get_string("policy", "BR"));
  config.metric = overlay::parse_metric(params.get_string("metric", "delay(ping)"));
  config.k = static_cast<std::size_t>(params.get_int("k", 5));
  config.seed = params.get_seed("seed", 42);
  config.epsilon = params.get_double("epsilon", config.epsilon);
  config.donated_links = static_cast<std::size_t>(
      params.get_int("donated-links", static_cast<int>(config.donated_links)));
  config.backbone =
      overlay::parse_backbone(params.get_string("backbone", "cycles"));
  config.preference_zipf_exponent =
      params.get_double("zipf", config.preference_zipf_exponent);
  if (config.policy == overlay::Policy::kFullMesh) config.k = n - 1;
  // Substrate backend (dense default keeps outputs byte-identical) and the
  // optional §5 scale-mode sampling knobs.
  const auto env_config = parse_underlay(params);
  config.br_sample =
      static_cast<std::size_t>(params.get_int("br-sample", 0));
  config.br_landmarks = static_cast<std::size_t>(
      params.get_int("br-landmarks", static_cast<int>(config.br_landmarks)));

  RunOptions options;
  options.warmup_epochs = params.get_int("warmup", 20);
  options.sample_epochs = params.get_int("sample", 10);

  // Score with the metric's natural quantity; "score" overrides (cost /
  // bandwidth / efficiency) for cross-metric comparisons.
  const std::string score_name = params.get_string(
      "score", config.metric == overlay::Metric::kBandwidth ? "bandwidth"
                                                            : "cost");
  Score score;
  if (score_name == "cost") {
    score = Score::kRoutingCost;
  } else if (score_name == "bandwidth") {
    score = Score::kBandwidth;
  } else if (score_name == "efficiency") {
    score = Score::kEfficiency;
  } else {
    throw std::invalid_argument("unknown score '" + score_name +
                                "' (want cost, bandwidth, efficiency)");
  }

  const auto result =
      run_single(n, config.seed, env_config, config, score, options);

  sink.section(
      "steady state: " + std::string(overlay::to_string(config.policy)) +
          " on " + overlay::to_string(config.metric),
      "Mean per-node " + score_name + " (95% CI) over " +
          std::to_string(options.sample_epochs) + " tail epochs after " +
          std::to_string(options.warmup_epochs) + " warmup epochs.");
  util::Table table({"policy", "metric", "n", "k", "mean", "ci95",
                     "re-wirings/epoch"});
  table.add_row({overlay::to_string(config.policy),
                 overlay::to_string(config.metric), std::to_string(n),
                 std::to_string(config.k),
                 util::Table::format(result.summary.mean, 4),
                 util::Table::format(result.summary.ci95, 4),
                 util::Table::format(result.rewirings_per_epoch, 2)});
  sink.table("steady_state", table);
}

}  // namespace egoist::exp
