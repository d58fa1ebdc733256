// Shared machinery for the serving bench (serve_remote) and the egoistd
// daemon.
//
// Both construct the SAME deployment from the same knob set: one BR
// overlay in §5 scale mode on the procedural underlay, churned, warmed up,
// then served from — in-process through a host::RouteService (serve_remote's
// inproc transport) or out-of-process through egoistd's rpc::Server. Keeping the knob reader and deployment builder in
// one place is what makes the remote bench's local comparison overlay
// bit-identical to the daemon's: both sides call read_serve_deployment +
// deploy_serving_overlay with the same scenario knobs, and the whole stack
// is deterministic from there.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "exp/params.hpp"
#include "host/overlay_host.hpp"
#include "host/route_service.hpp"
#include "util/latency_histogram.hpp"
#include "util/rng.hpp"

namespace egoist::exp {

/// Zipf sampler over ranks [0, n): P(rank r) ~ (r + 1)^-s. Destination id
/// == rank; with s ~ 1 a handful of nodes absorb most lookups, the classic
/// hot-content skew.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);
  overlay::NodeId draw(util::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// The serving deployment read off a scenario: overlay + substrate +
/// service knobs. Two processes that construct this from the same knobs
/// and run the same number of epochs hold bit-identical overlays.
struct ServeDeployment {
  std::size_t n = 10000;
  overlay::OverlayConfig config;
  overlay::EnvironmentConfig env;
  bool churn = true;
  double churn_timescale = 1.0;
  /// Virtual seconds of churn trace to generate (must cover warmup plus
  /// every epoch the deployment will ever run).
  double churn_horizon_s = 0.0;
  int warmup = 2;
  double epoch_seconds = 60.0;
  host::RouteService::Options service_options;
};

/// Reads the shared serving knobs (n, k, policy, metric, seed, underlay,
/// br-sample, br-landmarks, coord-warmup, workers, incremental,
/// drift-threshold, churn, churn-timescale, warmup, epoch-seconds,
/// max-cached-sources, verify-seals). `horizon_epochs` sizes the churn
/// trace: the worst-case epoch count the caller will drive.
ServeDeployment read_serve_deployment(const ParamReader& params,
                                      double horizon_epochs);

/// The knob names read_serve_deployment understands. A spawner forwards
/// exactly these (when present in its own scenario) to egoistd, so both
/// processes construct the deployment from identical knobs — the basis of
/// the remote bench's in-process comparison.
std::span<const char* const> serve_deployment_keys();

struct ServingOverlay {
  std::unique_ptr<host::OverlayHost> host;
  host::OverlayHandle handle;
};

/// Builds the host, deploys the overlay (with its churn trace) and runs
/// the warmup epochs.
ServingOverlay deploy_serving_overlay(const ServeDeployment& deployment);

/// The hot source pool for serving window `window`: `sources` distinct
/// nodes sampled from the currently-online set with the window-tagged
/// stream every serving window has always used.
std::vector<overlay::NodeId> hot_source_pool(const host::WiringSnapshot& snap,
                                             std::uint64_t seed,
                                             std::size_t window,
                                             std::size_t sources);

/// One serving window's aggregate measurement (in-process or remote).
struct WindowResult {
  double elapsed_s = 0.0;
  int epochs = 0;
  std::uint64_t queries = 0;
  std::uint64_t unreachable = 0;
  util::LatencyHistogram latency;  ///< nanoseconds per query
};

/// Runs one in-process serving window: `readers` threads hammer
/// `service` with the serving workload (hot `pool` sources, zipf or
/// uniform destinations over [0, n)) while the calling thread drives
/// epochs — at least one, then until `duration_s` elapses or `max_epochs`
/// ran. These are serve_remote's inproc rows.
WindowResult run_inproc_window(host::OverlayHost& host,
                               host::OverlayHandle handle,
                               host::RouteService& service,
                               std::span<const overlay::NodeId> pool,
                               bool zipf, double zipf_exponent, std::size_t n,
                               int readers, double duration_s, int max_epochs,
                               std::uint64_t seed, std::size_t window);

}  // namespace egoist::exp
