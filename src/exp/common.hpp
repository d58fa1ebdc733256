// Shared measurement loop for the figure experiments, on the OverlayHost
// API.
//
// Each figure experiment reconstructs one figure of the paper: it deploys
// one overlay per policy on a shared host (one substrate, per-overlay
// measurement planes — the paper's concurrent per-policy PlanetLab
// agents), drives wiring epochs through the host's event loop, samples the
// per-node scores over the tail of the run through epoch-end subscriptions
// and WiringSnapshots, and emits the same normalized series the figure
// shows.
#pragma once

#include <string>
#include <vector>

#include "exp/params.hpp"
#include "host/overlay_host.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace egoist::exp {

/// What a run measures.
enum class Score {
  kRoutingCost,   ///< uniform routing cost (delay / load), lower is better
  kBandwidth,     ///< mean bottleneck bandwidth, higher is better
  kEfficiency,    ///< mean 1/d efficiency (churn experiments)
};

struct RunOptions {
  int warmup_epochs = 20;   ///< epochs before sampling starts
  int sample_epochs = 10;   ///< epochs whose scores are averaged
  double epoch_seconds = 60.0;
};

struct RunResult {
  util::Summary summary;           ///< over per-node scores (paper's mean + CI)
  std::vector<double> node_means;  ///< per-node mean over sampled epochs
  double rewirings_per_epoch = 0.0;
};

/// Reads `score` out of an epoch-end snapshot (scores are ordered like
/// snapshot.online_nodes()).
std::vector<double> snapshot_scores(const host::WiringSnapshot& snapshot,
                                    Score score);

/// Drives every overlay in `overlays` for warmup + sample more epochs on
/// `host` (concurrent overlays advance together on the shared clock) and
/// collects the chosen score over the sampled tail, one RunResult per
/// overlay. The overlays must have been deployed with
/// epoch_period == options.epoch_seconds.
std::vector<RunResult> run_and_score(host::OverlayHost& host,
                                     const std::vector<host::OverlayHandle>& overlays,
                                     Score score, const RunOptions& options);

/// Single-overlay convenience overload.
RunResult run_and_score(host::OverlayHost& host, host::OverlayHandle overlay,
                        Score score, const RunOptions& options);

/// The classic one-shot deployment: a fresh single-overlay host (substrate
/// seeded with `env_seed`), one overlay from `config`, run and scored.
RunResult run_single(std::size_t n, std::uint64_t env_seed,
                     const overlay::OverlayConfig& config, Score score,
                     const RunOptions& options);

/// As above, on an explicit substrate configuration (underlay backend,
/// sparse-plane threshold, generator knobs).
RunResult run_single(std::size_t n, std::uint64_t env_seed,
                     const overlay::EnvironmentConfig& env_config,
                     const overlay::OverlayConfig& config, Score score,
                     const RunOptions& options);

/// Reads the shared substrate knob `underlay` (dense | procedural) into an
/// EnvironmentConfig. dense is the default, so experiments that parse this
/// knob keep byte-identical default outputs.
overlay::EnvironmentConfig parse_underlay(const ParamReader& params);

/// Standard knobs shared by the figure experiments. n and seed are always
/// read; an experiment names the other groups it uses, and the rest stay
/// unread, so a scenario value for a knob it ignores fails
/// ParamReader::finish with the usual did-you-mean hint.
struct CommonArgs {
  enum Knobs : unsigned {
    kWarmup = 1u << 0,
    kSample = 1u << 1,
    kKRange = 1u << 2,  ///< k-min and k-max
    kAll = kWarmup | kSample | kKRange,
  };

  std::size_t n = 50;
  std::uint64_t seed = 42;
  int warmup = 20;
  int sample = 10;
  int k_min = 2;
  int k_max = 8;

  static CommonArgs parse(const ParamReader& params, unsigned knobs = kAll);
  RunOptions run_options() const;
};

}  // namespace egoist::exp
