// scale_frontier: what one wiring epoch costs as n grows (§4.2, §5).
//
// One row per (n, policy, workers, variant): each builds an OverlayHost on
// the chosen underlay backend (procedural by default — O(n) substrate
// state, O(1) advance), deploys one BR/HybridBR overlay, runs the
// requested BR epochs, and reports run_epoch() wall time alongside the
// memory telemetry that proves the O(n (k + k2 + br-sample)) claim:
// substrate bytes, measurement-plane bytes, the pairs the plane holds an
// EWMA for, and process peak RSS with its growth during the row.
//
// `br-sample > 0` is §5 scale mode (sampled candidates x epoch-shared
// landmark destinations — no O(n^2) residual state); `br-sample = 0` is
// the exact dense residual objective, which scenarios/perf_epoch_scaling.scn
// times at n <= 400 on the dense underlay. k is clamped to n - 1 per row.
//
// Quality is tracked by a sampled oracle: shortest-path routing cost over
// the true-cost overlay graph from score-sources random online sources
// (full all-pairs scoring would itself be O(n^2) and is exactly what this
// experiment exists to avoid). `searches_skipped` counts the timed
// evaluations that kept their wiring on the scale-mode bound, without a
// search (0 in dense mode).
//
// `workers` is a comma list of OverlayConfig::epoch_workers values, one
// row each. Every value runs the same epoch, so within one (n, policy,
// variant) every row must equal the first on the trajectory columns
// (rewirings, evaluated, skipped_evals, searches_skipped, dirty_nodes,
// mean_cost, unreachable, probed_pairs). The run fails otherwise, naming
// both rows and the column. Dense mode takes workers 0 only.
// `profile = true` enables the in-process profiler around the timed
// epochs and emits per-phase rows ("profile" panel; see
// docs/EXPERIMENTS.md).
//
// Long-horizon churn: `churn-horizon = N` (epochs, 0 = static membership)
// synthesizes a §4.4 ON/OFF trace over the timed region and replays it
// between epochs through the network escape hatch — membership flips land
// outside the clock, the epochs they perturb inside it.
// `incremental = true` runs the dirty-set epochs (tolerance mode,
// `drift-threshold`, default 0.05) and the rows report evaluated /
// skipped_evals / dirty_frac / dirty_nodes; `compare-full = true`
// additionally runs the full-recompute variant of every row on the same
// trace and reports speedup_vs_full on the incremental rows.
#include <algorithm>
#include <chrono>
#include <iomanip>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "churn/churn.hpp"
#include "exp/common.hpp"
#include "exp/experiments/experiments.hpp"
#include "graph/shortest_path.hpp"
#include "util/profiler.hpp"

namespace egoist::exp {

namespace {

struct FrontierRow {
  std::string policy;
  std::size_t n = 0;
  std::string variant;         ///< "full" or "incremental"
  int workers = 0;             ///< OverlayConfig::epoch_workers
  double build_ms = 0.0;       ///< host construction + deploy (bootstrap)
  double epoch_ms_mean = 0.0;
  double epoch_ms_min = 0.0;
  int rewirings = 0;
  std::uint64_t evaluated = 0;   ///< node evaluations in the timed epochs
  std::uint64_t skipped = 0;     ///< evaluations skipped (incremental)
  /// Evaluations that kept their wiring on propose's bound, without a
  /// search (scale mode only).
  std::uint64_t searches_skipped = 0;
  double dirty_frac = 1.0;       ///< evaluated / (evaluated + skipped)
  std::size_t dirty_nodes = 0;   ///< marked nodes after the last epoch
  double speedup_vs_full = 0.0;  ///< 0 = n/a (needs compare-full)
  double churn_rate = 0.0;       ///< paper's metric over the replayed trace
  double mean_cost = 0.0;      ///< sampled-source mean routing cost (ms)
  std::size_t unreachable = 0; ///< unreachable sampled pairs
  std::size_t substrate_bytes = 0;
  std::size_t plane_bytes = 0;
  std::size_t probed_pairs = 0;
  /// Process-wide peak RSS when the row finished. It never decreases
  /// within a run, so a later row repeats an earlier, larger row's peak;
  /// rss_delta_bytes is the row's own growth.
  std::size_t peak_rss_bytes = 0;
  std::size_t rss_delta_bytes = 0;
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::string fixed(double value, int digits) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(digits) << value;
  return out.str();
}

/// The columns a row's trajectory fixes, by name, at full precision: rows
/// that walk one trajectory must agree on every one of them.
std::vector<std::pair<std::string, std::string>> trajectory_columns(
    const FrontierRow& row) {
  std::ostringstream cost;
  cost << std::setprecision(17) << row.mean_cost;
  return {{"rewirings", std::to_string(row.rewirings)},
          {"evaluated", std::to_string(row.evaluated)},
          {"skipped_evals", std::to_string(row.skipped)},
          {"searches_skipped", std::to_string(row.searches_skipped)},
          {"dirty_nodes", std::to_string(row.dirty_nodes)},
          {"mean_cost", cost.str()},
          {"unreachable", std::to_string(row.unreachable)},
          {"probed_pairs", std::to_string(row.probed_pairs)}};
}

}  // namespace

void run_scale_frontier(const ParamReader& params, ResultSink& sink) {
  const auto n_list =
      params.get_int_list("n-list", "1000,2000,5000,10000,20000");
  for (const int n : n_list) {
    if (n < 3) throw std::invalid_argument("n must be >= 3");
  }
  const std::string policy_text = params.get_string("policy", "BR");
  std::vector<overlay::Policy> policies;
  for (const auto& name : split_csv(policy_text)) {
    policies.push_back(overlay::parse_policy(name));
  }
  if (policies.empty()) throw std::invalid_argument("empty policy list");

  overlay::OverlayConfig config;
  config.metric =
      overlay::parse_metric(params.get_string("metric", "delay(ping)"));
  config.k = static_cast<std::size_t>(params.get_int("k", 10));
  config.seed = params.get_seed("seed", 42);
  config.br_sample =
      static_cast<std::size_t>(params.get_int("br-sample", 32));
  config.br_landmarks =
      static_cast<std::size_t>(params.get_int("br-landmarks", 64));
  // The overlay config validation rejects negative worker counts, and
  // workers >= 1 outside scale mode.
  const auto workers_list = params.get_int_list("workers", "0");

  auto env_config = parse_underlay(params);
  // The scale regime is the default; run dense only when the scenario
  // explicitly asks for it.
  if (params.spec().find("underlay") == nullptr) {
    env_config.underlay = net::UnderlayKind::kProcedural;
  }
  env_config.coord_warmup_rounds =
      params.get_int("coord-warmup", env_config.coord_warmup_rounds);
  const std::string underlay = net::to_string(env_config.underlay);

  const int warmup = params.get_int("warmup", 0);
  const int epochs = params.get_int("epochs", 1);
  if (warmup < 0 || epochs < 1) {
    throw std::invalid_argument("need warmup >= 0 and epochs >= 1");
  }
  const double epoch_s = params.get_double("epoch-seconds", 60.0);
  const int score_sources = params.get_int("score-sources", 16);
  const bool profile = params.get_bool("profile", false);
  // Churn replay + incremental dirty-set knobs (see the header comment).
  const int churn_horizon = params.get_int("churn-horizon", 0);
  const double churn_timescale = params.get_double("churn-timescale", 0.2);
  const bool incremental = params.get_bool("incremental", false);
  const double drift_threshold = params.get_double("drift-threshold", 0.05);
  const bool compare_full = params.get_bool("compare-full", false);
  if (churn_horizon < 0) {
    throw std::invalid_argument("churn-horizon must be >= 0");
  }
  util::ProfileSession profile_session(profile);
  const auto host_cpus = std::to_string(std::thread::hardware_concurrency());

  sink.section(
      "scale frontier: " + policy_text + " on " +
          overlay::to_string(config.metric) + ", " + underlay + " underlay",
      "One overlay per row (br-sample=" + std::to_string(config.br_sample) +
          ", br-landmarks=" + std::to_string(config.br_landmarks) +
          ", k=" + std::to_string(config.k) + "; br-sample 0 = dense residual "
          "objective); " + std::to_string(epochs) +
          " timed epoch(s) after " + std::to_string(warmup) +
          " warmup. Memory columns are the O(n (k + k2 + br-sample)) "
          "evidence.");

  const std::vector<std::string> kColumns{
      "policy",          "n",               "variant",       "underlay",
      "workers",         "build_ms",        "epoch_ms_mean", "epoch_ms_min",
      "rewirings",       "evaluated",       "skipped_evals", "searches_skipped",
      "dirty_frac",      "dirty_nodes",     "speedup_vs_full", "mean_cost",
      "unreachable",     "churn_rate",      "substrate_bytes", "plane_bytes",
      "probed_pairs",    "peak_rss_bytes",  "rss_delta_bytes", "host_cpus"};
  util::Table table(kColumns);

  // One measured deployment: builds the host, replays the (shared) churn
  // trace between timed epochs through the network escape hatch, and
  // fills every telemetry column. The trace and every seed are identical
  // across the rows of one n, so they compare the same workload.
  const auto run_row = [&](overlay::Policy policy, std::size_t n, int workers,
                           bool run_incremental,
                           const std::optional<churn::ChurnTrace>& trace) {
    overlay::OverlayConfig row_config = config;
    row_config.policy = policy;
    row_config.k = std::min(config.k, n - 1);
    row_config.epoch_workers = workers;
    row_config.incremental = run_incremental;
    row_config.drift_threshold = run_incremental ? drift_threshold : 0.0;

    FrontierRow row;
    row.policy = overlay::to_string(policy);
    row.n = n;
    row.variant = run_incremental ? "incremental" : "full";
    row.workers = workers;

    const std::size_t rss_before = util::peak_rss_bytes();
    const auto build_start = std::chrono::steady_clock::now();
    host::OverlayHost deployment(n, row_config.seed, env_config);
    const auto handle = deployment.deploy(
        host::OverlaySpec(row_config).epoch_period(epoch_s));
    row.build_ms = ms_since(build_start);

    if (warmup > 0) deployment.run_epochs(handle, warmup);

    // Time run_epoch() only, via the escape hatch: substrate advancement
    // and event dispatch stay outside the clock.
    auto& env = deployment.environment(handle);
    auto& net = deployment.network(handle);
    // Trace time 0 = start of the timed region: take nodes that begin OFF
    // down before the first timed epoch (outside the clock).
    std::size_t next_event = 0;
    if (trace) {
      const auto& initial = trace->initial_on();
      for (std::size_t v = 0; v < initial.size(); ++v) {
        if (!initial[v]) net.set_online(static_cast<int>(v), false);
      }
      row.churn_rate = trace->churn_rate();
    }
    // Profile the timed epochs only: drop whatever bootstrap and warmup
    // recorded.
    if (profile) util::Profiler::instance().reset();
    const std::uint64_t evals_mark = net.total_evaluations();
    const std::uint64_t skips_mark = net.total_skipped_evals();
    const std::uint64_t searches_mark = net.total_searches_skipped();
    row.epoch_ms_min = std::numeric_limits<double>::infinity();
    for (int e = 0; e < epochs; ++e) {
      env.advance(epoch_s);
      if (trace) {
        // Membership flips up to the end of this epoch land before its
        // clock starts; the epoch then pays their re-evaluation cost.
        const double until = (e + 1) * epoch_s;
        const auto& events = trace->events();
        for (; next_event < events.size() && events[next_event].time <= until;
             ++next_event) {
          net.set_online(events[next_event].node, events[next_event].on);
        }
      }
      const auto start = std::chrono::steady_clock::now();
      row.rewirings += net.run_epoch();
      const double ms = ms_since(start);
      row.epoch_ms_mean += ms;
      row.epoch_ms_min = std::min(row.epoch_ms_min, ms);
    }
    row.epoch_ms_mean /= epochs;
    row.evaluated = net.total_evaluations() - evals_mark;
    row.skipped = net.total_skipped_evals() - skips_mark;
    row.searches_skipped = net.total_searches_skipped() - searches_mark;
    const double total_evals = static_cast<double>(row.evaluated + row.skipped);
    row.dirty_frac =
        total_evals > 0.0 ? static_cast<double>(row.evaluated) / total_evals
                          : 1.0;
    row.dirty_nodes = net.dirty_count();

    if (profile) {
      std::vector<std::string> columns{"policy", "n", "variant", "workers"};
      const auto& phase_columns = util::profile_columns();
      columns.insert(columns.end(), phase_columns.begin(),
                     phase_columns.end());
      for (const auto& phase : util::Profiler::instance().report()) {
        std::vector<std::string> cells{row.policy, std::to_string(n),
                                       row.variant, std::to_string(workers)};
        const auto phase_cells = util::phase_cells(phase);
        cells.insert(cells.end(), phase_cells.begin(), phase_cells.end());
        sink.row("profile", columns, cells);
      }
    }

    // Sampled oracle score: routing cost from a few true-cost sources.
    if (score_sources > 0 && config.metric != overlay::Metric::kBandwidth) {
      const auto true_graph = net.true_cost_graph();
      const auto online = net.online_nodes();
      util::Rng source_rng(config.seed ^ (0x5CA1Eull + n));
      const auto sources = source_rng.sample_without_replacement(
          std::span<const overlay::NodeId>(online),
          std::min<std::size_t>(static_cast<std::size_t>(score_sources),
                                online.size()));
      double total = 0.0;
      std::size_t reachable = 0;
      for (const auto src : sources) {
        const auto tree = graph::dijkstra(true_graph, src);
        for (const auto dst : online) {
          if (dst == src) continue;
          const double d = tree.dist[static_cast<std::size_t>(dst)];
          if (d == graph::kUnreachable) {
            ++row.unreachable;
          } else {
            total += d;
            ++reachable;
          }
        }
      }
      row.mean_cost = reachable > 0 ? total / static_cast<double>(reachable) : 0.0;
    }

    row.substrate_bytes = deployment.substrate()->memory_bytes();
    row.plane_bytes = env.plane_memory_bytes();
    row.probed_pairs = env.probed_pairs();
    row.peak_rss_bytes = util::peak_rss_bytes();
    row.rss_delta_bytes = row.peak_rss_bytes - rss_before;
    return row;
  };

  const auto add_row = [&](const FrontierRow& row) {
    table.add_row({row.policy,
                   std::to_string(row.n),
                   row.variant,
                   underlay,
                   std::to_string(row.workers),
                   fixed(row.build_ms, 1),
                   fixed(row.epoch_ms_mean, 3),
                   fixed(row.epoch_ms_min, 3),
                   std::to_string(row.rewirings),
                   std::to_string(row.evaluated),
                   std::to_string(row.skipped),
                   std::to_string(row.searches_skipped),
                   fixed(row.dirty_frac, 3),
                   std::to_string(row.dirty_nodes),
                   row.speedup_vs_full > 0.0 ? fixed(row.speedup_vs_full, 3)
                                             : "-",
                   fixed(row.mean_cost, 3),
                   std::to_string(row.unreachable),
                   fixed(row.churn_rate, 4),
                   std::to_string(row.substrate_bytes),
                   std::to_string(row.plane_bytes),
                   std::to_string(row.probed_pairs),
                   std::to_string(row.peak_rss_bytes),
                   std::to_string(row.rss_delta_bytes),
                   host_cpus});
  };

  std::string mismatches;
  for (const int n_value : n_list) {
    const auto n = static_cast<std::size_t>(n_value);
    // One trace per n, shared verbatim by every row of that n.
    std::optional<churn::ChurnTrace> trace;
    if (churn_horizon > 0) {
      churn::ChurnConfig churn_config;
      churn_config.timescale = churn_timescale;
      churn_config.initial_on_fraction = 0.9;
      trace.emplace(n, churn_horizon * epoch_s, config.seed ^ 0xC0FFEEull,
                    churn_config);
    }
    for (const auto policy : policies) {
      // variant -> the trajectory reference for this (n, policy): its
      // first row.
      std::map<std::string, FrontierRow> reference;
      for (const int workers : workers_list) {
        std::vector<FrontierRow> rows;
        if (incremental && compare_full) {
          rows.push_back(run_row(policy, n, workers, false, trace));
          rows.push_back(run_row(policy, n, workers, true, trace));
          if (rows[0].epoch_ms_mean > 0.0 && rows[1].epoch_ms_mean > 0.0) {
            rows[1].speedup_vs_full =
                rows[0].epoch_ms_mean / rows[1].epoch_ms_mean;
          }
        } else {
          rows.push_back(run_row(policy, n, workers, incremental, trace));
        }
        for (const auto& row : rows) {
          add_row(row);
          const auto [it, first] = reference.emplace(row.variant, row);
          if (first) continue;
          const FrontierRow& ref = it->second;
          const auto want = trajectory_columns(ref);
          const auto got = trajectory_columns(row);
          for (std::size_t c = 0; c < got.size(); ++c) {
            if (got[c].second == want[c].second) continue;
            mismatches += row.policy + " n=" + std::to_string(n) + " " +
                          row.variant + " " + got[c].first + ": workers=" +
                          std::to_string(row.workers) + " " + got[c].second +
                          ", workers=" + std::to_string(ref.workers) + " " +
                          want[c].second + "\n";
          }
        }
      }
    }
  }

  // One emission only: JsonLinesSink expands the table into one structured
  // row per table row.
  sink.table("scale_frontier", table);
  if (!mismatches.empty()) {
    throw std::runtime_error(
        "rows that walk one trajectory must agree at every worker count:\n" +
        mismatches);
  }
}

}  // namespace egoist::exp
