// egoist_bench — the repository benchmark. BENCHMARK.json at the repo root
// declares its workloads and metrics; benchmark/README.md explains them.
//
//   egoist_bench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//                [--quick] [--workdir DIR] [--spans FILE] [--out FILE]
//
// Every workload runs one deployment shape: BR in §5 scale mode on the
// procedural underlay, paper-scale churn, sequential epochs (workers=0).
//
//   epoch_churn   in process: incremental tolerance-mode epochs absorb
//                 churn, each publishing a sealed snapshot; no queries.
//   route_hot     egoistd frozen after one epoch; 8 hot sources with Zipf
//                 destinations, so rows stay cached and the socket path
//                 dominates.
//   route_spread  the same daemon; every online node asks for uniform
//                 routes, so almost every answer builds a Dijkstra row.
//   route_churn   route_hot's traffic while the daemon re-wires on a fixed
//                 schedule.
//
// Each layer is measured from outside, by timing calls into its public
// entry points; nothing in src/ is instrumented. Every open-loop answer
// and every 64th closed-loop answer is checked bit for bit against an
// in-process replica of the daemon's deployment advanced to the answer's
// epoch. The last stdout line is one JSON object (correct / attempted /
// failed / metrics): the end-to-end metrics, or the per-layer metrics
// with --trace 1. Exit status 1 when any check fails.
#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <mutex>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_util.hpp"
#include "daemon.hpp"
#include "declared.hpp"
#include "exp/params.hpp"
#include "exp/scenario.hpp"
#include "exp/serve_workload.hpp"
#include "graph/shortest_path.hpp"
#include "host/route_service.hpp"
#include "load.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "util/flags.hpp"
#include "util/profiler.hpp"
#include "wire/protocol.hpp"

namespace {

using namespace egoist;
using bench::MetricTable;
using bench::now_ns;
using bench::SpanScope;
using bench::Tracer;
using graph::NodeId;

// Deployment and traffic. Rates and sizes are fixed here and in the
// workload descriptions of BENCHMARK.json; they are never re-tuned.
// n=5000 keeps a run (three set-ups, the window, the checks) near 20 s on
// a 4-CPU host; at n=10000 one set-up alone takes about 7 s there.
constexpr std::size_t kNodes = 5000;
constexpr std::size_t kQuickNodes = 2000;
constexpr int kSetups = 3;  ///< set-ups per run; setup_s is their median
constexpr int kLoops = 2;   ///< egoistd event loops
constexpr int kConns = 2;   ///< load connections per phase
constexpr int kDepth = 16;  ///< pipeline depth and batch size
constexpr std::size_t kHotSources = 8;
constexpr double kZipfExponent = 0.9;
/// Open-loop requests/s on route_hot and route_churn: about a seventh of the
/// daemon's pipelined closed-loop capacity. The one generator thread keeps
/// up with it: on a 4-vCPU host 0.7% of sends were over 50 us late at
/// 200k/s, 2.3% at 600k/s (benchmark/README.md).
constexpr double kHotRate = 200000.0;
constexpr double kSpreadRate = 500.0;  ///< open-loop requests/s, spread
constexpr double kPhaseWarmupS = 0.3;  ///< untimed, before the timed phases
constexpr double kClosedSliceS = 0.25;
constexpr double kOpenSliceS = 0.5;
/// The overlay every run deploys. --seed varies the traffic on top of it
/// (hot sources, destinations, send phase, sampled sources); the overlay's
/// own trajectory under churn differs so much between deployment seeds
/// (the median incremental epoch by up to 1.6x across seeds 1-5 at
/// n=5000) that runs on different seeds would not be comparable.
/// --deployment-seed re-checks a claim on another overlay.
constexpr std::uint64_t kDeploymentSeed = 42;
constexpr std::size_t kRecordEvery = 64;  ///< closed-loop answers kept
constexpr std::size_t kSampleEvery = 64;  ///< open-loop requests traced
/// route_churn's write load is a fixed number of re-wiring epochs per
/// window, one per kChurnEveryS of --seconds, each followed by a pause of
/// at most kChurnIntervalS (egoistd --epoch-interval). All of them must
/// publish inside the window, so the write load does not depend on how
/// fast the epoch engine is; a faster engine only leaves the daemon idle
/// for longer once they are done.
constexpr double kChurnEveryS = 4.0;
constexpr double kChurnIntervalS = 2.0;
/// epoch_churn times a fixed number of epochs per --seconds (24 at the
/// default 10 s), never "as many as fit": later epochs of the churn trace
/// are slower, so a time-bounded count would penalise a faster engine.
constexpr double kEpochsPerSecond = 2.4;
constexpr double kDriftThreshold = 0.05;  ///< epoch_churn tolerance mode
constexpr std::size_t kSweepSources = 64;
constexpr std::size_t kDijkstraChecks = 8;
constexpr double kLedgerTermS = 0.15;
constexpr double kWatchdogS = 170.0;  ///< per workload

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string workdir = ".";
  std::string spans_path;
  std::string out_path;
  std::string git_sha = "unknown";
  std::uint64_t deployment_seed = kDeploymentSeed;
  double hot_rate = kHotRate;
  std::string egoistd;

  std::size_t nodes() const { return quick ? kQuickNodes : kNodes; }
  /// route_churn's re-wiring epochs after the first publication.
  int churn_epochs() const {
    return std::max(1, static_cast<int>(seconds / kChurnEveryS));
  }
  /// The pause after each of them; short windows get shorter pauses.
  double churn_interval_s() const {
    return std::min(kChurnIntervalS, 0.4 * seconds);
  }
};

/// What one workload run produced.
struct Outcome {
  MetricTable metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void problem(const std::string& what) {
    problems.push_back(what);
    ++failed;
  }
};

using Knobs = std::vector<std::pair<std::string, std::string>>;

Knobs deployment_knobs(const RunConfig& cfg, bool incremental) {
  Knobs knobs = {{"n", std::to_string(cfg.nodes())},
                 {"seed", std::to_string(cfg.deployment_seed)}};
  if (incremental) {
    knobs.emplace_back("incremental", "true");
    knobs.emplace_back("drift-threshold", std::to_string(kDriftThreshold));
  }
  return knobs;
}

/// The daemon's deployment, read exactly as egoistd reads it: the same
/// knobs and the same max-epochs horizon (the churn trace's length
/// depends on it).
exp::ServeDeployment read_deployment(const Knobs& knobs, int horizon_epochs) {
  exp::ScenarioSpec spec;
  spec.name = "egoist_bench";
  for (const auto& [key, value] : knobs) spec.set(key, value);
  const exp::ParamReader params(spec);
  auto deployment = exp::read_serve_deployment(params, horizon_epochs);
  params.finish();
  return deployment;
}

// ---------------------------------------------------------------------------
// In-process overlay (epoch_churn's subject, the serving workloads' replica)

/// One epoch as seen from outside the engine.
struct EpochSample {
  double wall_ms = 0.0;     ///< run_epochs(h, 1)
  double publish_ms = 0.0;  ///< the RouteService's on_epoch_end bracket
  double evaluated = 0.0;
  double skipped = 0.0;
  double rewired = 0.0;
  // Traced runs only.
  double evaluate_ms = 0.0;  ///< profiler: evaluate scopes
  double other_ms = 0.0;     ///< profiler: the epoch scope's self time
  double snapshot_ms = 0.0;  ///< OverlayHost::snapshot
  double checksum_ms = 0.0;  ///< WiringSnapshot::payload_checksum
};

/// A deployment with its RouteService, bracketed by two bench
/// subscriptions: on_epoch_end callbacks fire in subscription order, so
/// the pair times the service's publish from outside.
struct LocalOverlay {
  exp::ServingOverlay serving;
  std::unique_ptr<host::RouteService> service;  // destroyed before the host
  std::uint64_t bracket_open_ns = 0;
  std::uint64_t publish_ns = 0;
  host::EpochEvent last_event;
  std::uint64_t last_seq = 0;

  host::OverlayHost& host() { return *serving.host; }
  host::OverlayHandle handle() const { return serving.handle; }
};

struct SetupTiming {
  double deploy_ms = 0.0;  ///< host build + deploy (deploy_serving_overlay)
  double warmup_ms = 0.0;  ///< warm-up epochs
  double total_s = 0.0;    ///< through RouteService attach
};

std::unique_ptr<LocalOverlay> build_local(const exp::ServeDeployment& deployment,
                                          SetupTiming& timing, Tracer& tracer) {
  auto local = std::make_unique<LocalOverlay>();
  auto bare = deployment;
  bare.warmup = 0;  // warm-up is timed on its own below
  SpanScope setup(tracer, "setup");
  const std::uint64_t t0 = now_ns();
  {
    SpanScope span(tracer, "setup.deploy", setup.id());
    local->serving = exp::deploy_serving_overlay(bare);
  }
  const std::uint64_t t1 = now_ns();
  {
    SpanScope span(tracer, "setup.warmup", setup.id());
    if (deployment.warmup > 0) {
      local->host().run_epochs(local->handle(), deployment.warmup);
    }
  }
  const std::uint64_t t2 = now_ns();
  LocalOverlay* l = local.get();
  l->host().on_epoch_end(l->handle(), [l](const host::EpochEvent&) {
    l->bracket_open_ns = now_ns();
  });
  l->service = std::make_unique<host::RouteService>(l->host(), l->handle(),
                                                    deployment.service_options);
  l->host().on_epoch_end(l->handle(), [l](const host::EpochEvent& event) {
    l->publish_ns = now_ns() - l->bracket_open_ns;
    l->last_event = event;
  });
  l->last_seq = l->service->acquire().publish_seq();
  timing.deploy_ms = static_cast<double>(t1 - t0) * 1e-6;
  timing.warmup_ms = static_cast<double>(t2 - t1) * 1e-6;
  timing.total_s = bench::seconds_since(t0);
  util::Profiler::instance().reset();  // traced epochs start from zero
  return local;
}

/// One run_epochs(h, 1) on `l`, checked: the service must publish exactly
/// one new snapshot stamped with the epoch just run.
EpochSample run_epoch(LocalOverlay& l, bool trace, Tracer& tracer,
                      Outcome& out) {
  EpochSample s;
  SpanScope span(tracer, "epoch");
  const std::uint64_t t0 = now_ns();
  l.host().run_epochs(l.handle(), 1);
  s.wall_ms = static_cast<double>(now_ns() - t0) * 1e-6;
  s.publish_ms = static_cast<double>(l.publish_ns) * 1e-6;
  s.evaluated = static_cast<double>(l.last_event.evaluated);
  s.skipped = static_cast<double>(l.last_event.skipped);
  s.rewired = static_cast<double>(l.last_event.rewired);
  tracer.add("host.publish", l.bracket_open_ns, l.bracket_open_ns + l.publish_ns,
             span.id());

  const auto view = l.service->acquire();
  if (view.publish_seq() != l.last_seq + 1 ||
      view.epoch() != l.host().epochs_run(l.handle())) {
    out.problem("epoch " + std::to_string(view.epoch()) +
                ": publication out of step (seq " +
                std::to_string(view.publish_seq()) + ")");
  }
  l.last_seq = view.publish_seq();

  if (trace) {
    for (const auto& phase : util::Profiler::instance().report()) {
      if (phase.path == "epoch") s.other_ms = phase.self_ns * 1e-6;
      if (phase.path.size() >= 8 &&
          phase.path.compare(phase.path.size() - 8, 8, "evaluate") == 0) {
        s.evaluate_ms += phase.total_ns * 1e-6;
      }
    }
    util::Profiler::instance().reset();
    const std::uint64_t t1 = now_ns();
    const auto snap = l.host().snapshot(l.handle());
    const std::uint64_t t2 = now_ns();
    const auto checksum = snap.payload_checksum();
    const std::uint64_t t3 = now_ns();
    tracer.add("host.snapshot", t1, t2, span.id());
    tracer.add("host.checksum", t2, t3, span.id());
    s.snapshot_ms = static_cast<double>(t2 - t1) * 1e-6;
    s.checksum_ms = static_cast<double>(t3 - t2) * 1e-6;
    if (checksum != view.snapshot().payload_checksum()) {
      out.problem("snapshot of epoch " + std::to_string(view.epoch()) +
                  " differs from its publication");
    }
  }
  return s;
}

/// Final-state sweep on a fresh publication: 64 seeded online sources
/// route to every online destination. Times each source's first call (it
/// builds the row), measures unreachability, and checks the first sources'
/// answers against an independent Dijkstra over the announced graph.
struct SweepResult {
  double unreachable_frac = 0.0;
  std::vector<double> row_build_ms;
  std::uint64_t answers = 0;
};

SweepResult sweep(LocalOverlay& l, std::uint64_t seed, Tracer& tracer,
                  Outcome& out) {
  SpanScope span(tracer, "sweep");
  l.service->publish();
  const auto view = l.service->acquire();
  const auto& snap = view.snapshot();
  const auto& online = snap.online_nodes();
  util::Rng rng(seed ^ 0x5EE9ull);
  const auto sources = rng.sample_without_replacement(
      std::span<const NodeId>(online), std::min(kSweepSources, online.size()));
  SweepResult r;
  std::uint64_t unreachable = 0, disagreements = 0;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const NodeId src = sources[i];
    const std::uint64_t t0 = now_ns();
    view.route(src, online.front());
    const std::uint64_t t1 = now_ns();
    tracer.add("host.row_build", t0, t1, span.id());
    r.row_build_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    graph::ShortestPathTree tree;
    if (i < kDijkstraChecks) tree = graph::dijkstra(snap.announced_graph(), src);
    for (const NodeId dst : online) {
      const auto a = view.route(src, dst);
      ++r.answers;
      if (!a.reachable) ++unreachable;
      if (i >= kDijkstraChecks) continue;
      const double dist = tree.dist[static_cast<std::size_t>(dst)];
      const bool ok =
          a.reachable == (dist != graph::kUnreachable) &&
          (!a.reachable ||
           (std::memcmp(&a.cost, &dist, sizeof dist) == 0 &&
            (src == dst ? a.next_hop == src
                        : snap.announced_graph().has_edge(src, a.next_hop))));
      if (!ok && ++disagreements <= 3) {
        out.problems.push_back("route " + std::to_string(src) + "->" +
                               std::to_string(dst) +
                               " disagrees with Dijkstra on the announced graph");
      }
    }
  }
  out.failed += disagreements;
  r.unreachable_frac =
      r.answers ? static_cast<double>(unreachable) / r.answers : 0.0;
  return r;
}

/// The cost ledger, one thread, route_hot traffic on a fresh publication:
/// a pinned lookup, the service call, the codec round trip, then the same
/// answers through an rpc::Server (one loop) over UDS and TCP.
void run_ledger(LocalOverlay& l, const RunConfig& cfg, Tracer& tracer,
                MetricTable& m, Outcome& out) {
  SpanScope ledger(tracer, "ledger");
  l.service->publish();
  const auto view = l.service->acquire();
  const bench::QueryMix mix(bench::QueryMix::Kind::kHot, view.snapshot(),
                            kHotSources, kZipfExponent, cfg.seed);
  util::Rng rng(cfg.seed ^ 0x1ED6Eull);
  std::vector<wire::BatchRoutePair> pairs(4096);
  for (auto& p : pairs) p = {mix.draw_src(rng), mix.draw_dst(rng)};
  for (const auto& p : pairs) view.route(p.src, p.dst);  // fill the rows

  // Repeats `body` (which answers `per_call` lookups) for kLedgerTermS;
  // returns ns per answer.
  const auto per_answer = [&](const char* name, int per_call,
                              const std::function<void(std::size_t)>& body) {
    const std::uint64_t t0 = now_ns();
    std::uint64_t answers = 0;
    std::size_t i = 0;
    do {
      for (int rep = 0; rep < 64; ++rep, ++i) body(i % pairs.size());
      answers += 64ull * static_cast<std::uint64_t>(per_call);
    } while (bench::seconds_since(t0) < kLedgerTermS);
    const std::uint64_t t1 = now_ns();
    tracer.add(name, t0, t1, ledger.id());
    return static_cast<double>(t1 - t0) / static_cast<double>(answers);
  };

  // Every timed call goes into the library, which the compiler cannot see
  // through, so discarded results are never optimised away.
  const double lookup_ns = per_answer("ledger.lookup", 1, [&](std::size_t i) {
    view.route(pairs[i].src, pairs[i].dst);
  });
  const double service_ns = per_answer("ledger.service", 1, [&](std::size_t i) {
    l.service->route(pairs[i].src, pairs[i].dst);
  });

  std::vector<std::uint8_t> req;
  std::vector<std::uint8_t> resp;
  const auto frame_payload = [](const std::vector<std::uint8_t>& frame,
                                wire::FrameHeader& header) {
    header = wire::decode_header(frame).header;
    return std::span<const std::uint8_t>(frame).subspan(wire::kHeaderSize,
                                                        header.payload_len);
  };
  const double codec_ns = per_answer("ledger.codec", 1, [&](std::size_t i) {
    req.clear();
    resp.clear();
    wire::encode_route_request(req, i + 1, {pairs[i].src, pairs[i].dst});
    wire::FrameHeader header;
    const auto request = wire::decode_request(header, frame_payload(req, header));
    const auto& rr = std::get<wire::RouteRequest>(request.request);
    wire::encode_route_response(resp, i + 1, {1, rr.dst, 1.5, 3, 2});
    wire::decode_response(header, frame_payload(resp, header));
  });
  std::vector<wire::BatchRoutePair> batch(kDepth);
  wire::BatchRouteResponse batch_answer;
  batch_answer.entries.assign(kDepth, {1, 7, 1.5});
  const double batch_codec_ns =
      per_answer("ledger.batch_codec", kDepth, [&](std::size_t i) {
        for (int k = 0; k < kDepth; ++k) batch[k] = pairs[(i + k) % pairs.size()];
        req.clear();
        resp.clear();
        wire::encode_batch_route_request(req, i + 1, {batch});
        wire::FrameHeader header;
        wire::decode_request(header, frame_payload(req, header));
        wire::encode_batch_route_response(resp, i + 1, batch_answer);
        wire::decode_response(header, frame_payload(resp, header));
      });

  rpc::ServerOptions options;
  options.uds_path = cfg.workdir + "/ledger-" + std::to_string(::getpid()) + ".sock";
  options.tcp_port = 0;
  options.loops = 1;
  rpc::Server server(*l.service, options);
  server.start();
  double uds_d1_ns = 0.0, uds_d16_ns = 0.0, uds_batch16_ns = 0.0, tcp_d16_ns = 0.0;
  try {
    auto uds = rpc::Client::connect_uds(options.uds_path);
    auto tcp = rpc::Client::connect_tcp("127.0.0.1", server.tcp_port());
    const auto pipelined = [&](rpc::Client& client) {
      return [&](std::size_t i) {
        for (int k = 0; k < kDepth; ++k) {
          const auto& p = pairs[(i + k) % pairs.size()];
          client.post_route(p.src, p.dst);
        }
        client.flush();
        for (int k = 0; k < kDepth; ++k) client.take_route();
      };
    };
    uds_d1_ns = per_answer("ledger.uds_d1", 1, [&](std::size_t i) {
      uds.route(pairs[i].src, pairs[i].dst);
    });
    uds_d16_ns = per_answer("ledger.uds_d16", kDepth, pipelined(uds));
    uds_batch16_ns = per_answer("ledger.uds_batch16", kDepth, [&](std::size_t i) {
      for (int k = 0; k < kDepth; ++k) batch[k] = pairs[(i + k) % pairs.size()];
      uds.route_batch(batch);
    });
    tcp_d16_ns = per_answer("ledger.tcp_d16", kDepth, pipelined(tcp));
    // The socket path answers what the pinned view answers.
    for (std::size_t i = 0; i < 64; ++i) {
      const auto want = view.route(pairs[i].src, pairs[i].dst);
      const auto got = tcp.route(pairs[i].src, pairs[i].dst);
      if (got.next_hop != want.next_hop ||
          std::memcmp(&got.cost, &want.cost, sizeof got.cost) != 0) {
        out.problem("ledger: a served answer differs from the pinned view");
        break;
      }
    }
  } catch (const std::exception& e) {
    out.problem(std::string("ledger rpc: ") + e.what());
  }
  server.stop();

  m.set("host.lookup_ns", lookup_ns, "ns");
  m.set("host.service_ns", service_ns, "ns");
  m.set("wire.codec_ns", codec_ns, "ns");
  m.set("wire.batch_codec_ns", batch_codec_ns, "ns");
  m.set("rpc.uds_d1_us", uds_d1_ns * 1e-3, "us");
  m.set("rpc.uds_d16_ns", uds_d16_ns, "ns");
  m.set("rpc.uds_batch16_ns", uds_batch16_ns, "ns");
  m.set("rpc.tcp_d16_ns", tcp_d16_ns, "ns");
  m.set("ledger.unattributed_frac",
        uds_d16_ns > 0.0 ? 1.0 - (service_ns + codec_ns) / uds_d16_ns : 0.0,
        "ratio");
}

/// Per-layer metrics of the epochs a workload ran in process.
void set_epoch_layers(const std::vector<EpochSample>& epochs, MetricTable& m) {
  std::vector<double> compute, publish, evaluate, other, snapshot, checksum;
  double evaluated = 0.0, skipped = 0.0, rewired = 0.0;
  for (const auto& e : epochs) {
    compute.push_back(e.wall_ms - e.publish_ms);
    publish.push_back(e.publish_ms);
    evaluate.push_back(e.evaluate_ms);
    other.push_back(e.other_ms);
    snapshot.push_back(e.snapshot_ms);
    checksum.push_back(e.checksum_ms);
    evaluated += e.evaluated;
    skipped += e.skipped;
    rewired += e.rewired;
  }
  const double count = std::max<double>(1.0, static_cast<double>(epochs.size()));
  m.set("overlay.compute_ms_p50", bench::median(compute), "ms");
  m.set("overlay.evaluate_ms_p50", bench::median(evaluate), "ms");
  m.set("overlay.other_ms_p50", bench::median(other), "ms");
  m.set("overlay.evaluated", evaluated / count, "count");
  m.set("overlay.dirty_frac",
        evaluated + skipped > 0.0 ? evaluated / (evaluated + skipped) : 0.0,
        "ratio");
  m.set("overlay.rewire_yield", evaluated > 0.0 ? rewired / evaluated : 0.0,
        "ratio");
  m.set("host.publish_ms_p50", bench::median(publish), "ms");
  m.set("host.snapshot_ms", bench::median(snapshot), "ms");
  m.set("host.checksum_ms", bench::median(checksum), "ms");
}

void set_setup_layers(const std::vector<SetupTiming>& setups, MetricTable& m) {
  std::vector<double> deploy, warmup;
  for (const auto& s : setups) {
    deploy.push_back(s.deploy_ms);
    warmup.push_back(s.warmup_ms);
  }
  m.set("setup.deploy_ms", bench::median(deploy), "ms");
  m.set("setup.warmup_ms", bench::median(warmup), "ms");
}

void set_sweep_layers(const SweepResult& sweep, MetricTable& m) {
  m.set("overlay.unreachable_frac", sweep.unreachable_frac, "ratio");
  m.set("host.row_build_ms", bench::median(sweep.row_build_ms), "ms");
}

/// Settles a run: drains the service (every pinned view released and
/// seal-verified) before the overlay is torn down.
void drain_service(LocalOverlay& l, Outcome& out) {
  try {
    if (!l.service->drain(5.0)) out.problem("RouteService did not drain");
  } catch (const std::exception& e) {
    out.problem(std::string("RouteService drain: ") + e.what());
  }
  if (l.service->stats().seal_violations != 0) out.problem("seal violation");
}

// ---------------------------------------------------------------------------
// epoch_churn

Outcome run_epoch_churn(const RunConfig& cfg, Tracer& tracer) {
  Outcome out;
  const int timed =
      std::max(12, static_cast<int>(kEpochsPerSecond * cfg.seconds + 0.5));
  const auto deployment =
      read_deployment(deployment_knobs(cfg, /*incremental=*/true), timed);

  std::vector<SetupTiming> setups(kSetups);
  std::unique_ptr<LocalOverlay> local;
  for (auto& setup : setups) {
    local.reset();  // one overlay alive at a time: peak memory is one set-up's
    local = build_local(deployment, setup, tracer);
    out.attempted += static_cast<std::uint64_t>(deployment.warmup);
  }

  util::ProfileSession profile(cfg.trace);
  std::vector<EpochSample> epochs;
  std::vector<double> wall;
  for (int e = 0; e < timed; ++e) {
    epochs.push_back(run_epoch(*local, cfg.trace, tracer, out));
    wall.push_back(epochs.back().wall_ms);
    ++out.attempted;
  }
  const auto stats = local->service->stats();
  const auto swept = sweep(*local, cfg.seed, tracer, out);
  out.attempted += swept.answers;

  std::vector<double> setup_s;
  for (const auto& s : setups) setup_s.push_back(s.total_s);
  double total_ms = 0.0;
  for (const double w : wall) total_ms += w;
  auto& m = out.metrics;
  m.set("setup_s", bench::median(setup_s), "s");
  m.set("peak_rss_mb", static_cast<double>(util::peak_rss_bytes()) / (1 << 20),
        "MiB");
  m.set("ops_per_s", 1e3 * static_cast<double>(timed) / total_ms, "1/s");
  m.set("op_p50_ms", bench::median(wall), "ms");
  // The mean of the slowest quarter (6 of 24 epochs at 10 s): a tail that
  // a few slow epochs move, steadier than any one order statistic.
  std::vector<double> slowest = wall;
  std::sort(slowest.begin(), slowest.end(), std::greater<>());
  slowest.resize(slowest.size() / 4);
  m.set("op_tail_ms", util::Summary::of(slowest).mean, "ms");

  set_setup_layers(setups, m);
  set_epoch_layers(epochs, m);
  set_sweep_layers(swept, m);
  m.set("host.uncached_frac", 0.0, "ratio");
  m.set("host.rows_built", 0.0, "count");
  m.set("host.rows_discarded_frac", 0.0, "ratio");
  m.set("host.stale_frac", 0.0, "ratio");
  m.set("host.publishes", static_cast<double>(stats.publishes - 1), "count");
  m.set("host.served_unreachable_frac", 0.0, "ratio");
  m.set("rpc.answers_per_pin", 0.0, "ratio");
  m.set("rpc.loop_share_min", 0.0, "ratio");
  m.set("rpc.batch_qps", 0.0, "1/s");
  m.set("gen.late_frac", 0.0, "ratio");
  m.set("gen.client_frac", 0.0, "ratio");
  if (cfg.trace) run_ledger(*local, cfg, tracer, m, out);
  drain_service(*local, out);
  return out;
}

// ---------------------------------------------------------------------------
// route_hot / route_spread / route_churn

enum class Serve { kHot, kSpread, kChurn };

bool same_answer(const host::RouteAnswer& a, const bench::Recorded& r) {
  return a.reachable == (r.reachable != 0) && a.next_hop == r.next_hop &&
         std::memcmp(&a.cost, &r.cost, sizeof a.cost) == 0 &&
         a.epoch == r.epoch && a.publish_seq == r.publish_seq;
}

/// Advances the replica to each recorded answer's epoch and checks the
/// answer bit for bit against one ServedSnapshot pinned per epoch.
/// Returns the epochs the replica ran to catch up.
std::vector<EpochSample> check_answers(LocalOverlay& replica,
                                       std::vector<bench::Recorded> recorded,
                                       std::uint64_t max_seq, bool trace,
                                       Tracer& tracer, Outcome& out) {
  SpanScope span(tracer, "oracle");
  std::sort(recorded.begin(), recorded.end(),
            [](const bench::Recorded& a, const bench::Recorded& b) {
              return a.publish_seq < b.publish_seq ||
                     (a.publish_seq == b.publish_seq && a.src < b.src);
            });
  std::vector<EpochSample> epochs;
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0, j = 0; i < recorded.size(); i = j) {
    const auto seq = recorded[i].publish_seq;
    while (replica.last_seq < std::min(seq, max_seq)) {
      epochs.push_back(run_epoch(replica, trace, tracer, out));
    }
    const auto view = replica.service->acquire();
    for (j = i; j < recorded.size() && recorded[j].publish_seq == seq; ++j) {
      const auto& r = recorded[j];
      if (view.publish_seq() == seq && same_answer(view.route(r.src, r.dst), r)) {
        continue;
      }
      if (++mismatches <= 3) {
        out.problems.push_back("answer " + std::to_string(r.src) + "->" +
                               std::to_string(r.dst) + " at publication " +
                               std::to_string(seq) + " differs from the replica");
      }
    }
  }
  out.failed += mismatches;
  out.attempted += recorded.size();
  return epochs;
}

std::string socket_path(const RunConfig& cfg, int index) {
  return cfg.workdir + "/egoistd-" + std::to_string(::getpid()) + "-" +
         std::to_string(index) + ".sock";
}

/// Runs a function on its own thread; join() waits for it and rethrows
/// what it threw.
class Task {
 public:
  explicit Task(std::function<void()> fn)
      : thread_([this, fn = std::move(fn)] {
          try {
            fn();
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}
  ~Task() {
    if (thread_.joinable()) thread_.join();
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  void join() {
    thread_.join();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::exception_ptr error_;
  std::thread thread_;  // last: starts once error_ exists
};

Outcome run_serve(const RunConfig& cfg, Serve kind, Tracer& tracer) {
  Outcome out;
  const bool churn = kind == Serve::kChurn;
  // The first post-warm-up epoch, which the traffic waits for, then the
  // re-wiring epochs the window must see published.
  const int churn_epochs = churn ? cfg.churn_epochs() : 0;
  const int max_epochs = 1 + churn_epochs;
  const Knobs knobs = deployment_knobs(cfg, /*incremental=*/false);
  const auto deployment = read_deployment(knobs, max_epochs);
  int sockets = 0;
  const auto spawn = [&] {
    SpanScope span(tracer, "daemon.setup");
    const std::string uds = socket_path(cfg, sockets++);
    std::vector<std::string> args = {
        "--uds=" + uds, "--loops=" + std::to_string(kLoops),
        "--max-epochs=" + std::to_string(max_epochs),
        "--epoch-interval=" + bench::full_digits(churn ? cfg.churn_interval_s() : 0.0)};
    for (const auto& [key, value] : knobs) args.push_back("--" + key + "=" + value);
    auto daemon = std::make_unique<bench::Daemon>(cfg.egoistd, args, uds);
    const double ready_s = daemon->wait_ready(120.0);
    return std::make_pair(std::move(daemon), ready_s);
  };

  // The serving daemon and the replica set up side by side; the replica
  // also runs the daemon's first post-warm-up epoch, the publication the
  // traffic waits for.
  util::ProfileSession profile(cfg.trace);
  std::unique_ptr<LocalOverlay> replica;
  SetupTiming replica_setup;
  std::vector<EpochSample> epochs;
  Outcome checks;  // written by the replica's thread, merged after join
  std::vector<double> setup_s;
  std::unique_ptr<bench::Daemon> daemon;
  {
    Task replica_task([&] {
      replica = build_local(deployment, replica_setup, tracer);
      epochs.push_back(run_epoch(*replica, cfg.trace, tracer, checks));
    });
    auto [serving, ready_s] = spawn();
    daemon = std::move(serving);
    setup_s.push_back(ready_s);
    replica_task.join();
  }

  const std::string uds = daemon->uds_path();
  auto control = rpc::Client::connect_uds(uds);
  const std::uint64_t wait_start = now_ns();
  while (control.ping().publish_seq < replica->last_seq) {
    if (bench::seconds_since(wait_start) > 120.0) {
      throw std::runtime_error("egoistd never published its first epoch");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const bench::QueryMix mix(kind == Serve::kSpread ? bench::QueryMix::Kind::kSpread
                                                   : bench::QueryMix::Kind::kHot,
                            replica->service->acquire().snapshot(), kHotSources,
                            kZipfExponent, cfg.seed);
  const bool spread = kind == Serve::kSpread;
  // The window is shared out in rounds of closed, batch and open loop, so
  // each metric samples the whole window rather than one stretch of a
  // shared machine's weather. The open loop carries two end-to-end
  // metrics, the closed loop one, the batch phase none.
  const int rounds = std::max(1, static_cast<int>(cfg.seconds / 3.0 + 0.5));
  const double closed_s = cfg.seconds * (spread ? 0.45 : 0.35) / rounds;
  const double batch_s = spread ? 0.0 : cfg.seconds * 0.1 / rounds;
  const double open_s = cfg.seconds * 0.55 / rounds;
  const double rate = spread ? kSpreadRate : cfg.hot_rate;

  std::vector<bench::PhaseResult> phases;
  std::vector<double> closed_qps, batch_qps, open_p50, open_p90;
  const auto phase = [&](const char* name, auto&& body) -> bench::PhaseResult& {
    SpanScope span(tracer, name);
    phases.push_back(body());
    return phases.back();
  };
  const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  phase("phase.warmup", [&] {
    return bench::run_closed(uds, mix, kConns, kDepth, false, kPhaseWarmupS,
                             kClosedSliceS, cfg.seed ^ 0x1, ~std::size_t{0});
  });
  const auto s0 = control.stats();
  std::uint64_t late = 0, sent = 0;
  double sampled_request_ns = 0.0, sampled_client_ns = 0.0;
  for (int r = 0; r < rounds; ++r) {
    const std::uint64_t tag = static_cast<std::uint64_t>(r) << 8;
    append(closed_qps, phase("phase.closed", [&] {
      return bench::run_closed(uds, mix, kConns, kDepth, false, closed_s,
                               kClosedSliceS, cfg.seed ^ (tag | 0x2), kRecordEvery);
    }).slice_qps);
    if (batch_s > 0.0) {
      append(batch_qps, phase("phase.batch", [&] {
        return bench::run_closed(uds, mix, kConns, kDepth, true, batch_s,
                                 kClosedSliceS, cfg.seed ^ (tag | 0x3), kRecordEvery);
      }).slice_qps);
    }
    const auto& open = phase("phase.open", [&] {
      return bench::run_open(uds, mix, kConns, rate, open_s, kOpenSliceS,
                             cfg.seed ^ (tag | 0x4), tracer, kSampleEvery);
    });
    append(open_p50, open.slice_p50_ns);
    append(open_p90, open.slice_p90_ns);
    late += open.late_sends;
    sent += open.sent;
    sampled_request_ns += open.sampled_request_ns;
    sampled_client_ns += open.sampled_client_ns;
  }
  const auto s1 = control.stats();
  // The frozen daemon published nothing during the window; the churning
  // one published every scheduled epoch inside it.
  const std::uint64_t first_seq = replica->last_seq;
  if (s0.publish_seq != first_seq ||
      s1.publish_seq != first_seq + static_cast<std::uint64_t>(churn_epochs)) {
    out.problem(std::to_string(s1.publish_seq - s0.publish_seq) + " of " +
                std::to_string(churn_epochs) +
                " scheduled re-wiring epochs published inside the window (" +
                std::to_string(s0.publish_seq - first_seq) + " before it)");
  }
  const double rss_mb = daemon->peak_rss_mb();
  control.close();
  if (const auto problem = daemon->stop(10.0); !problem.empty()) {
    out.problem(problem);
  }

  std::vector<bench::Recorded> recorded;
  std::uint64_t answers = 0, unreachable = 0;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const auto& ph = phases[p];
    out.attempted += ph.answers + ph.failed;
    out.failed += ph.failed;
    for (const auto& e : ph.errors) out.problems.push_back(e);
    recorded.insert(recorded.end(), ph.recorded.begin(), ph.recorded.end());
    if (p > 0) {  // the warm-up is not timed
      answers += ph.answers;
      unreachable += ph.unreachable;
    }
  }
  // The replica catches up with every recorded answer's publication and
  // checks it while the remaining set-ups are measured.
  {
    Task oracle([&] {
      const auto caught_up =
          check_answers(*replica, std::move(recorded),
                        static_cast<std::uint64_t>(1 + max_epochs), cfg.trace,
                        tracer, checks);
      epochs.insert(epochs.end(), caught_up.begin(), caught_up.end());
    });
    while (static_cast<int>(setup_s.size()) < kSetups) {
      auto [probe, ready_s] = spawn();
      setup_s.push_back(ready_s);
      probe->kill();  // set-up probes serve nothing
    }
    oracle.join();
  }
  out.attempted += checks.attempted;
  out.failed += checks.failed;
  out.problems.insert(out.problems.end(), checks.problems.begin(),
                      checks.problems.end());
  const auto swept = sweep(*replica, cfg.seed, tracer, out);
  out.attempted += swept.answers;

  auto& m = out.metrics;
  m.set("setup_s", bench::median(setup_s), "s");
  m.set("peak_rss_mb", rss_mb, "MiB");
  m.set("ops_per_s", bench::median(closed_qps), "1/s");
  m.set("op_p50_ms", bench::median(open_p50) * 1e-6, "ms");
  m.set("op_tail_ms", bench::median(open_p90) * 1e-6, "ms");

  set_setup_layers({replica_setup}, m);
  set_epoch_layers(epochs, m);
  set_sweep_layers(swept, m);
  const auto delta = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double queries = std::max(1.0, delta(s1.queries_route, s0.queries_route));
  const double built = delta(s1.rows_built, s0.rows_built);
  const double discarded = delta(s1.rows_discarded, s0.rows_discarded);
  m.set("host.uncached_frac", delta(s1.uncached_queries, s0.uncached_queries) / queries,
        "ratio");
  m.set("host.rows_built", built, "count");
  m.set("host.rows_discarded_frac",
        built + discarded > 0.0 ? discarded / (built + discarded) : 0.0, "ratio");
  m.set("host.stale_frac", delta(s1.stale_served, s0.stale_served) / queries, "ratio");
  m.set("host.publishes", delta(s1.publish_seq, s0.publish_seq), "count");
  m.set("host.served_unreachable_frac",
        answers ? static_cast<double>(unreachable) / answers : 0.0, "ratio");
  m.set("rpc.answers_per_pin",
        queries / std::max(1.0, delta(s1.batches, s0.batches)), "ratio");
  double share_min = 0.0;
  if (!s1.per_loop.empty() && s1.per_loop.size() == s0.per_loop.size()) {
    std::vector<double> frames;
    for (std::size_t i = 0; i < s0.per_loop.size(); ++i) {
      frames.push_back(delta(s1.per_loop[i].frames_out, s0.per_loop[i].frames_out));
    }
    const double mean = util::Summary::of(frames).mean;
    if (mean > 0.0) share_min = *std::min_element(frames.begin(), frames.end()) / mean;
  }
  m.set("rpc.loop_share_min", share_min, "ratio");
  m.set("rpc.batch_qps", batch_qps.empty() ? 0.0 : bench::median(batch_qps), "1/s");
  m.set("gen.late_frac", sent ? static_cast<double>(late) / sent : 0.0, "ratio");
  m.set("gen.client_frac",
        sampled_request_ns > 0.0 ? sampled_client_ns / sampled_request_ns : 0.0,
        "ratio");
  if (cfg.trace) run_ledger(*replica, cfg, tracer, m, out);
  drain_service(*replica, out);
  return out;
}

// ---------------------------------------------------------------------------
// Driver

/// A wedged run must still end, and take its daemons with it, before any
/// caller's deadline.
class Watchdog {
 public:
  explicit Watchdog(double seconds)
      : thread_([this, seconds] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                            [this] { return done_; })) {
            std::cerr << "egoist_bench: watchdog expired\n";
            bench::kill_all_daemons();
            std::_Exit(2);
          }
        }) {}
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;  ///< guarded by mutex_
  std::thread thread_;  // last: starts once the members it uses exist
};

struct Workload {
  const char* name;
  Outcome (*run)(const RunConfig&, Tracer&);
  std::vector<std::string> never_runs;  ///< phases, for the result header
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"epoch_churn", run_epoch_churn, {"daemon", "closed", "batch", "open"}},
      {"route_hot",
       [](const RunConfig& c, Tracer& t) { return run_serve(c, Serve::kHot, t); },
       {}},
      {"route_spread",
       [](const RunConfig& c, Tracer& t) { return run_serve(c, Serve::kSpread, t); },
       {"batch"}},
      {"route_churn",
       [](const RunConfig& c, Tracer& t) { return run_serve(c, Serve::kChurn, t); },
       {}},
  };
  return all;
}

template <std::size_t N>
bool declares(const bench::declared::Entry (&entries)[N], const std::string& name,
              const std::string& unit = "") {
  return std::any_of(std::begin(entries), std::end(entries), [&](const auto& e) {
    return name == e.name && unit == e.unit;
  });
}

template <std::size_t N>
std::vector<std::string> names(const bench::declared::Entry (&entries)[N]) {
  std::vector<std::string> out;
  for (const auto& e : entries) out.emplace_back(e.name);
  return out;
}

/// The benchmark's naming contract with BENCHMARK.json: every metric the
/// run measured is declared there with the same unit, and every declared
/// metric of the reported kind was measured.
std::vector<bench::Metric> declared_metrics(const MetricTable& table, bool trace) {
  using namespace bench::declared;
  for (const auto& metric : table.all()) {
    if (!declares(kEndToEnd, metric.name, metric.unit) &&
        !declares(kPerLayer, metric.name, metric.unit)) {
      throw std::logic_error("metric '" + metric.name + "' [" + metric.unit +
                             "] is not declared in BENCHMARK.json");
    }
  }
  table.select(names(kEndToEnd));  // measured in traced runs too
  return table.select(trace ? names(kPerLayer) : names(kEndToEnd));
}

std::string json_metrics(const std::vector<bench::Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           bench::full_digits(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

int run(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  RunConfig cfg;
  cfg.workload = flags.get_string("workload", "all");
  cfg.seed = flags.get_seed("seed", 1);
  cfg.quick = flags.get_bool("quick", false);
  cfg.seconds = flags.get_double("seconds", cfg.quick ? 2.0 : 10.0);
  cfg.trace = flags.get_int("trace", 0) != 0;
  cfg.workdir = flags.get_string("workdir", ".");
  cfg.spans_path = flags.get_string("spans", "");
  cfg.out_path = flags.get_string("out", "");
  cfg.git_sha = flags.get_string("git-sha", "unknown");
  cfg.deployment_seed = flags.get_seed("deployment-seed", kDeploymentSeed);
  cfg.hot_rate = flags.get_double("hot-rate", kHotRate);
  flags.finish(
      "egoist_bench: the repository benchmark (BENCHMARK.json, "
      "benchmark/README.md). --workload is one declared workload or 'all'.");
  if (cfg.seconds <= 0.0 || cfg.seconds > 60.0) {
    throw std::invalid_argument("--seconds must be in (0, 60]");
  }

  // Workload names: the binary and BENCHMARK.json must agree both ways.
  for (const auto& w : workloads()) {
    if (!declares(bench::declared::kWorkloads, w.name)) {
      throw std::logic_error(std::string("workload '") + w.name +
                             "' is not declared in BENCHMARK.json");
    }
  }
  std::vector<const Workload*> selected;
  for (const auto& d : bench::declared::kWorkloads) {
    const auto it = std::find_if(workloads().begin(), workloads().end(),
                                 [&](const Workload& w) { return d.name == std::string(w.name); });
    if (it == workloads().end()) {
      throw std::logic_error(std::string("declared workload '") + d.name +
                             "' is not implemented");
    }
    if (cfg.workload == "all" || cfg.workload == it->name) selected.push_back(&*it);
  }
  if (selected.empty()) {
    throw std::invalid_argument("unknown --workload '" + cfg.workload + "'");
  }

  const Watchdog watchdog(kWatchdogS * static_cast<double>(selected.size()));

  char self[4096];
  const ssize_t len = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (len <= 0) throw std::runtime_error("cannot locate egoist_bench");
  self[len] = '\0';
  cfg.egoistd = std::string(self);
  cfg.egoistd = cfg.egoistd.substr(0, cfg.egoistd.rfind('/')) + "/egoistd";

  std::ofstream out_file;
  if (!cfg.out_path.empty()) {
    out_file.open(cfg.out_path);
    if (!out_file) throw std::runtime_error("cannot write " + cfg.out_path);
    std::string skipped;
    for (const auto* w : selected) {
      auto phases = w->never_runs;
      if (!cfg.trace) phases.insert(phases.end(), {"ledger", "profile", "spans"});
      for (const auto& phase : phases) {
        skipped += (skipped.empty() ? "\"" : ", \"") + std::string(w->name) + ":" +
                   phase + "\"";
      }
    }
    out_file << "{\"header\": true, \"host_cpus\": "
             << std::thread::hardware_concurrency() << ", \"build_type\": \""
             << EGOIST_BENCH_BUILD_TYPE << "\", \"git_sha\": \"" << cfg.git_sha
             << "\", \"seed\": " << cfg.seed << ", \"deployment_seed\": "
             << cfg.deployment_seed << ", \"hot_rate\": "
             << bench::full_digits(cfg.hot_rate) << ", \"seconds\": "
             << bench::full_digits(cfg.seconds) << ", \"trace\": "
             << (cfg.trace ? "true" : "false") << ", \"quick\": "
             << (cfg.quick ? "true" : "false") << ", \"nodes\": " << cfg.nodes()
             << ", \"skipped\": [" << skipped << "]}\n";
  }

  Tracer tracer(cfg.trace);
  bool all_correct = true;
  for (const auto* w : selected) {
    const Outcome result = w->run(cfg, tracer);
    const auto reported = declared_metrics(result.metrics, cfg.trace);
    const bool correct = result.failed == 0 && result.problems.empty();
    all_correct = all_correct && correct;
    for (const auto& p : result.problems) {
      std::cerr << "egoist_bench: " << w->name << ": " << p << '\n';
    }
    for (const auto& metric : result.metrics.all()) {
      std::cout << w->name << "  " << metric.name << " = "
                << bench::full_digits(metric.value) << " " << metric.unit << '\n';
    }
    const std::string line =
        std::string("{\"correct\": ") + (correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(1, result.attempted)) +
        ", \"failed\": " + std::to_string(result.failed) +
        ", \"metrics\": " + json_metrics(reported) + "}";
    if (out_file.is_open()) {
      out_file << "{\"workload\": \"" << w->name << "\", \"seed\": " << cfg.seed
               << ", \"trace\": " << (cfg.trace ? "true" : "false")
               << ", \"correct\": " << (correct ? "true" : "false")
               << ", \"attempted\": " << result.attempted
               << ", \"failed\": " << result.failed
               << ", \"metrics\": " << json_metrics(result.metrics.all()) << "}\n";
    }
    std::cout << line << std::endl;
  }
  if (!cfg.spans_path.empty() && cfg.trace) tracer.write_jsonl(cfg.spans_path);
  return all_correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "egoist_bench: error: " << e.what() << '\n';
    return 1;
  }
}
