// Epoch wall-time scaling of the BR hot path.
//
// Measures EgoistNetwork::run_epoch() wall time for BR / HybridBR overlays
// at growing n, on these variants:
//
//   engine      the sequential epoch over the CSR graph::PathEngine
//   engine-par  the parallel epoch pipeline (snapshot -> parallel evaluate
//               -> deterministic merge), at epoch_workers = 1 and at the
//               resolved `workers` knob
//   full-quiet  sequential full recompute on a quiet measurement plane
//               (ping jitter / drift zeroed) after `inc-warmup` epochs —
//               the steady-state baseline for the incremental row
//   incremental dirty-set epochs (tau = 0 exact mode) on the same quiet
//               deployment — must re-wire identically to full-quiet and
//               reports evaluated / skipped / dirty_frac
//
// engine runs the paper's unsynchronized sequential epoch; engine-par
// runs the pipeline semantics (every node evaluates against the
// epoch-start snapshot), a *different* deterministic trajectory. engine-par
// @1's speedup is read against engine; every further engine-par row must
// re-wire exactly like engine-par@1 (bit-identical at any worker count),
// and the run fails when one does not.
//
// The `workers` knob (0 = auto) is resolved to a concrete pool size via
// util::WorkerPool::resolve up front, and every row reports that actual
// count. `profile = true` enables the in-process profiler around the timed
// epochs and emits per-phase rows ("profile" panel; see
// docs/EXPERIMENTS.md).
//
// Output is the structured sink: one "scaling" row per measurement, which
// carries `host_cpus` so speedups are read against the hardware that
// produced them. Timings are wall-clock and thus not deterministic;
// rewiring counts and trajectories are.
#include <algorithm>
#include <chrono>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "exp/common.hpp"
#include "exp/experiments/experiments.hpp"
#include "util/profiler.hpp"
#include "util/worker_pool.hpp"

namespace egoist::exp {

namespace {

struct BackendSpec {
  std::string name;
  int epoch_workers;  ///< 0 = sequential epoch; >= 1 = parallel pipeline
  bool incremental = false;  ///< dirty-set epochs (exact mode, tau = 0)
  bool quiet = false;        ///< quiet measurement plane (no jitter/drift)
};

struct Measurement {
  std::string policy;
  std::size_t n = 0;
  std::string backend;
  int workers = 1;         ///< actual pool size driving this row (never 0)
  double epoch_ms_mean = 0.0;
  double epoch_ms_min = 0.0;
  int rewirings = 0;       ///< total over the timed epochs (trajectory check)
  double speedup = 0.0;    ///< vs. `baseline` at same (policy, n); 0 = n/a
  std::string baseline;    ///< what `speedup` is relative to ("" = n/a)
  std::size_t substrate_bytes = 0;  ///< substrate storage at this n
  /// Process-wide peak RSS high-water mark when the row finished. RSS is
  /// monotonic across the whole process, so rows within one run can only
  /// report a non-decreasing value (the BENCH_6 HybridBR rows all froze at
  /// the BR n-max's peak); read rss_delta_bytes for a per-row figure.
  std::size_t peak_rss_bytes = 0;
  std::size_t rss_delta_bytes = 0;  ///< peak-RSS growth during this row
  std::uint64_t evaluated = 0;      ///< node evaluations in the timed epochs
  std::uint64_t skipped = 0;        ///< evaluations skipped (incremental)
  double dirty_frac = 1.0;          ///< evaluated / (evaluated + skipped)
};

std::vector<std::size_t> parse_n_list(const std::string& csv) {
  std::vector<std::size_t> out;
  for (const auto& item : split_csv(csv)) {
    const int v = std::stoi(item);
    if (v < 3) throw std::invalid_argument("n must be >= 3");
    out.push_back(static_cast<std::size_t>(v));
  }
  if (out.empty()) throw std::invalid_argument("empty n-list");
  return out;
}

std::vector<overlay::Policy> parse_policies(const std::string& csv) {
  std::vector<overlay::Policy> out;
  for (const auto& item : split_csv(csv)) {
    if (item == "BR") {
      out.push_back(overlay::Policy::kBestResponse);
    } else if (item == "HybridBR") {
      out.push_back(overlay::Policy::kHybridBR);
    } else {
      throw std::invalid_argument("unknown policy (want BR, HybridBR): " + item);
    }
  }
  if (out.empty()) throw std::invalid_argument("empty policies");
  return out;
}

Measurement measure(overlay::Policy policy, std::size_t n,
                    const BackendSpec& spec, std::size_t k, int warmup,
                    int epochs, std::uint64_t seed,
                    const overlay::EnvironmentConfig& env_config,
                    bool profile) {
  overlay::OverlayConfig config;
  config.policy = policy;
  config.metric = overlay::Metric::kDelayPing;
  config.k = std::min(k, n - 1);
  config.donated_links = 2;
  config.seed = seed;
  config.epoch_workers = spec.epoch_workers;
  config.incremental = spec.incremental;  // tau = 0: exact dirty-set mode

  const std::size_t rss_before = util::peak_rss_bytes();
  host::OverlayHost deployment(n, seed, env_config);
  const auto handle = deployment.deploy(host::OverlaySpec(config));
  deployment.run_epochs(handle, warmup);
  // Timing loop: drive the engine directly through the host's escape
  // hatch so the clock covers run_epoch() only — substrate advancement and
  // event dispatch stay outside the measurement.
  auto& env = deployment.environment(handle);
  auto& net = deployment.network(handle);

  Measurement m;
  m.policy = overlay::to_string(policy);
  m.n = n;
  m.backend = spec.name;
  m.workers = std::max(spec.epoch_workers, 1);
  // Profile the timed epochs only: drop whatever warmup recorded.
  if (profile) util::Profiler::instance().reset();
  const std::uint64_t evals_mark = net.total_evaluations();
  const std::uint64_t skips_mark = net.total_skipped_evals();
  m.epoch_ms_min = std::numeric_limits<double>::infinity();
  for (int e = 0; e < epochs; ++e) {
    env.advance(60.0);
    const auto start = std::chrono::steady_clock::now();
    m.rewirings += net.run_epoch();
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    m.epoch_ms_mean += ms;
    m.epoch_ms_min = std::min(m.epoch_ms_min, ms);
  }
  m.epoch_ms_mean /= epochs;
  m.evaluated = net.total_evaluations() - evals_mark;
  m.skipped = net.total_skipped_evals() - skips_mark;
  const double total = static_cast<double>(m.evaluated + m.skipped);
  m.dirty_frac = total > 0.0 ? static_cast<double>(m.evaluated) / total : 1.0;
  m.substrate_bytes = deployment.substrate()->memory_bytes();
  m.peak_rss_bytes = util::peak_rss_bytes();
  m.rss_delta_bytes = m.peak_rss_bytes - rss_before;
  return m;
}

const std::vector<std::string> kRowColumns{
    "policy", "n", "backend", "workers", "epoch_ms_mean", "epoch_ms_min",
    "rewirings", "evaluated", "skipped", "dirty_frac", "speedup", "baseline",
    "substrate_bytes", "peak_rss_bytes", "rss_delta_bytes", "host_cpus"};

std::vector<std::string> row_cells(const Measurement& m) {
  std::ostringstream mean_ms, min_ms, dirty_frac, speedup;
  mean_ms << std::fixed << std::setprecision(3) << m.epoch_ms_mean;
  min_ms << std::fixed << std::setprecision(3) << m.epoch_ms_min;
  dirty_frac << std::fixed << std::setprecision(3) << m.dirty_frac;
  if (m.speedup > 0.0) {
    speedup << std::fixed << std::setprecision(3) << m.speedup;
  } else {
    speedup << "-";
  }
  return {m.policy,     std::to_string(m.n), m.backend,
          std::to_string(m.workers),          mean_ms.str(),
          min_ms.str(), std::to_string(m.rewirings),
          std::to_string(m.evaluated), std::to_string(m.skipped),
          dirty_frac.str(), speedup.str(),
          m.baseline.empty() ? "-" : m.baseline,
          std::to_string(m.substrate_bytes),
          std::to_string(m.peak_rss_bytes),
          std::to_string(m.rss_delta_bytes),
          std::to_string(std::thread::hardware_concurrency())};
}

std::vector<std::string> profile_row_columns() {
  std::vector<std::string> columns{"policy", "n", "backend", "workers"};
  const auto& phase_columns = util::profile_columns();
  columns.insert(columns.end(), phase_columns.begin(), phase_columns.end());
  return columns;
}

void emit_profile_rows(ResultSink& sink, const Measurement& m) {
  const auto columns = profile_row_columns();
  for (const auto& phase : util::Profiler::instance().report()) {
    std::vector<std::string> cells{m.policy, std::to_string(m.n), m.backend,
                                   std::to_string(m.workers)};
    const auto phase_cells = util::phase_cells(phase);
    cells.insert(cells.end(), phase_cells.begin(), phase_cells.end());
    sink.row("profile", columns, cells);
  }
}

}  // namespace

void run_perf_epoch_scaling(const ParamReader& params, ResultSink& sink) {
  const auto n_list = parse_n_list(params.get_string("n-list", "50,100,200,400"));
  const auto policies = parse_policies(params.get_string("policies", "BR,HybridBR"));
  const auto k = static_cast<std::size_t>(params.get_int("k", 5));
  const int warmup = params.get_int("warmup", 1);
  // The quiet-plane rows (full-quiet / incremental) measure the steady
  // state: by default they warm up long enough for the overlay to converge
  // and the dirty set to drain, so the timed epochs are post-warmup.
  const int inc_warmup = params.get_int("inc-warmup", 6);
  const int epochs = params.get_int("epochs", 3);
  if (warmup < 0 || inc_warmup < 0 || epochs < 1) {
    throw std::invalid_argument("need warmup >= 0, inc-warmup >= 0, epochs >= 1");
  }
  const std::uint64_t seed = params.get_seed("seed", 42);
  // Resolve the 0 = auto knob to the actual pool size once, up front, and
  // thread the concrete count everywhere: the BENCH_5 `workers:0` rows were
  // a reporting bug (the config default leaked into the report while the
  // engine sized its pool internally).
  const int workers = util::WorkerPool::resolve(params.get_int("workers", 0));
  const bool profile = params.get_bool("profile", false);
  const auto env_config = parse_underlay(params);

  sink.section(
      "perf: epoch scaling",
      "run_epoch() wall time per variant; every engine-par row must re-wire\n"
      "like its workers=1 baseline and incremental like full-quiet —\n"
      "bit-identical trajectories for a fixed seed.");

  std::vector<BackendSpec> specs{{"engine", 0}, {"engine-par", 1}};
  if (workers > 1) specs.push_back({"engine-par", workers});
  // Incremental dirty-set rows run on a quiet measurement plane (no ping
  // jitter, no drift), where the overlay converges and the dirty set can
  // drain; full-quiet is the sequential full recompute of the *same*
  // deployment and the incremental row's baseline and trajectory
  // reference — exact mode must re-wire identically, or the run fails.
  specs.push_back({"full-quiet", 0, /*incremental=*/false, /*quiet=*/true});
  specs.push_back({"incremental", 0, /*incremental=*/true, /*quiet=*/true});
  auto quiet_env = env_config;
  quiet_env.ping_jitter_ms = 0.0;
  quiet_env.delay_drift_volatility = 0.0;

  util::ProfileSession profile_session(profile);

  {
    std::ostringstream head;
    head << std::left << std::setw(10) << "policy" << std::setw(7) << "n"
         << std::setw(12) << "backend" << std::setw(9) << "workers"
         << std::setw(14) << "epoch ms" << std::setw(14) << "min ms"
         << std::setw(10) << "rewires" << "speedup\n";
    head << std::string(80, '-') << "\n";
    sink.text(head.str());
  }
  int trajectory_mismatches = 0;
  std::string mismatch_report;
  for (const auto policy : policies) {
    for (const std::size_t n : n_list) {
      double engine_ms = 0.0;
      double par1_ms = 0.0;
      int par1_rewirings = -1;
      double fullq_ms = 0.0;
      int fullq_rewirings = -1;
      for (const auto& spec : specs) {
        auto m = measure(policy, n, spec, k, spec.quiet ? inc_warmup : warmup,
                         epochs, seed, spec.quiet ? quiet_env : env_config,
                         profile);
        if (spec.name == "engine") {
          engine_ms = m.epoch_ms_mean;
        } else if (spec.name == "full-quiet") {
          // Quiet plane, sequential full recompute: the incremental row's
          // baseline and trajectory reference.
          fullq_ms = m.epoch_ms_mean;
          fullq_rewirings = m.rewirings;
        } else if (spec.name == "incremental") {
          if (fullq_ms > 0.0 && m.epoch_ms_mean > 0.0) {
            m.speedup = fullq_ms / m.epoch_ms_mean;
            m.baseline = "full-quiet";
          }
          // Exact mode (tau = 0): the dirty-set run must walk the very
          // same trajectory as the full recompute, bit for bit.
          if (fullq_rewirings >= 0 && m.rewirings != fullq_rewirings) {
            ++trajectory_mismatches;
            mismatch_report += "TRAJECTORY MISMATCH: " + m.policy +
                               " n=" + std::to_string(n) +
                               " incremental rewired " +
                               std::to_string(m.rewirings) +
                               " vs full-quiet " +
                               std::to_string(fullq_rewirings) + "\n";
          }
        } else if (spec.epoch_workers == 1) {
          // The pipeline's own single-thread baseline: later engine-par
          // rows check their trajectory and speedup against this row.
          par1_ms = m.epoch_ms_mean;
          par1_rewirings = m.rewirings;
          if (engine_ms > 0.0 && m.epoch_ms_mean > 0.0) {
            m.speedup = engine_ms / m.epoch_ms_mean;
            m.baseline = "engine";
          }
        } else {
          if (par1_ms > 0.0 && m.epoch_ms_mean > 0.0) {
            m.speedup = par1_ms / m.epoch_ms_mean;
            m.baseline = "engine-par@1";
          }
          // The bit-identical-at-any-worker-count contract.
          if (par1_rewirings >= 0 && m.rewirings != par1_rewirings) {
            ++trajectory_mismatches;
            mismatch_report += "TRAJECTORY MISMATCH: " + m.policy +
                               " n=" + std::to_string(n) + " " + m.backend +
                               " workers=" + std::to_string(m.workers) +
                               " rewired " + std::to_string(m.rewirings) +
                               " vs engine-par@1 " +
                               std::to_string(par1_rewirings) + "\n";
          }
        }
        std::ostringstream line;
        line << std::left << std::setw(10) << m.policy << std::setw(7) << m.n
             << std::setw(12) << m.backend << std::setw(9) << m.workers
             << std::setw(14) << std::fixed << std::setprecision(2)
             << m.epoch_ms_mean << std::setw(14) << m.epoch_ms_min
             << std::setw(10) << m.rewirings;
        if (m.speedup > 0.0) {
          line << std::setprecision(2) << m.speedup << "x vs " << m.baseline;
        } else {
          line << "-";
        }
        line << "\n";
        sink.text(line.str());
        sink.row("scaling", kRowColumns, row_cells(m));
        if (profile) emit_profile_rows(sink, m);
      }
    }
  }

  if (trajectory_mismatches > 0) {
    throw std::runtime_error(
        mismatch_report + "error: " + std::to_string(trajectory_mismatches) +
        " row(s) diverged from their reference trajectory");
  }
}

}  // namespace egoist::exp
