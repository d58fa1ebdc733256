// Ablation study for the design choices §3.3-§3.4 argues for:
//
//  (a) Backbone construction: EGOIST's donated ring cycles vs an MST mesh
//      (Young et al. style) — efficiency under churn and splice cost
//      (backbone links rebuilt per membership event).
//  (b) Re-wiring mode: delayed (epoch) vs immediate repair — efficiency
//      under churn vs extra evaluations.
//  (c) Audits: free-rider impact with and without coordinate cross-checks.
#include "exp/churn_replay.hpp"
#include "exp/common.hpp"
#include "exp/experiments/experiments.hpp"

namespace egoist::exp {

namespace {

ChurnReplayResult run_churny(const CommonArgs& args,
                             overlay::OverlayConfig config, double mean_on_s,
                             int epochs) {
  churn::ChurnConfig churn_config;
  churn_config.mean_on_s = mean_on_s;
  churn_config.mean_off_s = mean_on_s / 3.0;
  churn_config.initial_on_fraction = 0.75;
  churn::ChurnTrace trace(args.n, epochs * 60.0, args.seed ^ 0xAB1u,
                          churn_config);
  host::OverlayHost host(args.n, args.seed);
  const auto overlay = host.deploy(host::OverlaySpec(config)
                                       .epoch_period(60.0)
                                       .staggered(args.seed ^ 0xAB2u)
                                       .churn(std::move(trace)));
  ChurnReplayOptions replay;
  replay.epochs = epochs;
  replay.warmup_epochs = 5;
  return replay_churn(host, overlay, replay);
}

}  // namespace

void run_ablation_design_choices(const ParamReader& params, ResultSink& sink) {
  const auto args =
      CommonArgs::parse(params, CommonArgs::kWarmup | CommonArgs::kSample);
  const int epochs = params.get_int("epochs", 25);

  overlay::OverlayConfig base;
  base.k = 5;
  base.seed = args.seed;

  // --- (a) Backbone construction under churn ---
  sink.section(
      "Ablation (a): HybridBR backbone — ring cycles vs MST mesh",
      "Mean efficiency under two churn intensities; cycles splice locally, "
      "the MST is a centralized rebuild per membership event (§3.3).");
  {
    util::Table table({"churn mean-ON (s)", "cycles eff", "mst eff"});
    for (double mean_on : {2000.0, 200.0}) {
      auto cycles = base;
      cycles.policy = overlay::Policy::kHybridBR;
      cycles.backbone = overlay::Backbone::kCycles;
      auto mst = cycles;
      mst.backbone = overlay::Backbone::kMst;
      table.add_numeric_row(
          {mean_on, run_churny(args, cycles, mean_on, epochs).mean_efficiency,
           run_churny(args, mst, mean_on, epochs).mean_efficiency},
          4);
    }
    sink.table("backbone", table);
  }

  // --- (b) Re-wiring mode ---
  sink.text("\n");
  sink.section(
      "Ablation (b): delayed vs immediate re-wiring (plain BR)",
      "Immediate repair buys efficiency under churn at the price of more "
      "re-wirings (probing/computation).");
  {
    util::Table table(
        {"churn mean-ON (s)", "delayed eff", "immediate eff",
         "delayed rewires", "immediate rewires"});
    for (double mean_on : {2000.0, 200.0}) {
      auto delayed = base;
      delayed.policy = overlay::Policy::kBestResponse;
      delayed.rewire_mode = overlay::RewireMode::kDelayed;
      auto immediate = delayed;
      immediate.rewire_mode = overlay::RewireMode::kImmediate;
      const auto d = run_churny(args, delayed, mean_on, epochs);
      const auto i = run_churny(args, immediate, mean_on, epochs);
      table.add_numeric_row({mean_on, d.mean_efficiency, i.mean_efficiency,
                             static_cast<double>(d.total_rewirings),
                             static_cast<double>(i.total_rewirings)},
                            4);
    }
    sink.table("rewire_mode", table);
  }

  // --- (c) Audits vs a flagrant cheater ---
  sink.text("\n");
  sink.section(
      "Ablation (c): coordinate audits vs a 4x-inflating free rider",
      "Mean routing cost with the cheater, without and with audits "
      "(lower is better; audits replace flagged announcements with the "
      "coordinate estimate, §3.4).");
  {
    util::Table table({"audits", "mean cost (ms)"});
    for (bool audits : {false, true}) {
      auto config = base;
      config.policy = overlay::Policy::kBestResponse;
      config.cheaters = {3};
      config.cheat_factor = 4.0;
      config.enable_audits = audits;
      const auto result = run_single(args.n, args.seed, config,
                                     Score::kRoutingCost, args.run_options());
      table.add_row({audits ? "on" : "off",
                     util::Table::format(result.summary.mean, 2)});
    }
    sink.table("audits", table);
  }
}

}  // namespace egoist::exp
