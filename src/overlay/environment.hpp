// The shared "PlanetLab" substrate an overlay (or several, concurrently)
// runs against: true delays, available bandwidth, node load, and the
// measurement planes (ping, Vivaldi coordinates, pathChirp-like probes).
//
// The paper neutralizes extrinsic variability by running all policies
// concurrently on the same nodes; we reproduce that by constructing one
// Substrate and evaluating every policy's overlay against it through its
// own Environment (one measurement plane per overlay).
//
// Substrates are backed by a pluggable net::UnderlayBackend: the dense
// stateful models (the default — every fixed-seed figure stays
// byte-identical) or the procedural O(n)-memory substrate that opens the
// §5 scale regime. Measurement planes follow suit: below
// sparse_plane_threshold nodes on a dense backend they keep the historical
// dense per-pair arrays (bit-exact); at scale, or on the procedural
// backend, each probing node owns one row of EWMAs keyed by its targets (an
// open-addressed table, so a node's probes stay in one cache-resident row),
// and per-pair delay drift is derived procedurally. A row is allocated
// once, at its node's first ping, for the plane's row bound and never
// reallocates: n targets on a plane nobody bounds, k + k2 + br_sample on a
// scale-mode overlay's plane, which cuts each row to the node's links and
// its pool before every measurement (bound_rows, cut_row). Plane memory is
// then O(n (k + k2 + br_sample)), not O(pairs ever probed). A ping reads
// both directed base delays through one net::DelayField::delay_pair call.
// Neither choice touches the arithmetic: every EWMA a row keeps is the
// dense plane's, bit for bit; a cut target's next ping seeds a fresh one.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "coord/vivaldi.hpp"
#include "net/load.hpp"
#include "net/measurement.hpp"
#include "net/underlay.hpp"

namespace egoist::overlay {

struct EnvironmentConfig {
  net::GeoDelayConfig geo;            ///< PlanetLab-like delay generator knobs
  net::BandwidthConfig bandwidth;
  net::LoadConfig load;
  coord::VivaldiConfig vivaldi;
  double ping_jitter_ms = 1.0;        ///< per-sample ping noise
  int ping_samples = 5;
  double bw_probe_error = 0.05;       ///< pathChirp-like relative error
  int coord_warmup_rounds = 200;      ///< Vivaldi convergence before use

  /// Slow per-pair delay drift (mean-reverting, relative): Internet paths
  /// wander as routes and queues change, which is what sustains a nonzero
  /// re-wiring rate at steady state (Fig 3).
  double delay_drift_volatility = 0.004;  ///< innovation per sqrt(second)
  double delay_drift_reversion = 0.01;    ///< pull toward 0 per second
  double delay_drift_cap = 0.3;           ///< |drift| bound

  /// Which substrate backend to construct (dense = the historical models).
  net::UnderlayKind underlay = net::UnderlayKind::kDense;

  /// Measurement planes switch from the historical dense per-pair arrays
  /// to sparse per-node EWMA rows at this node count (and always on the
  /// procedural backend). Dense planes below the threshold are bit-exact
  /// with the pre-backend code; sparse planes draw their delay drift from
  /// a procedural hash stream instead of a stateful O(n^2) sweep.
  std::size_t sparse_plane_threshold = 512;
};

/// The dynamic processes every overlay on one deployment shares: the
/// underlay backend (delay/bandwidth/load fields) and the Vivaldi
/// coordinate system. Advanced at most once per point in time — concurrent
/// overlays whose measurement planes advance in lockstep see one substrate
/// trajectory, identical to the trajectory a single overlay would see.
class Substrate {
 public:
  Substrate(std::size_t n, std::uint64_t seed, EnvironmentConfig config = {});

  std::size_t size() const { return backend_->size(); }
  std::uint64_t seed() const { return seed_; }
  const EnvironmentConfig& config() const { return config_; }

  const net::UnderlayBackend& backend() const { return *backend_; }
  net::UnderlayKind underlay_kind() const { return backend_->kind(); }

  const net::DelayField& delays() const { return backend_->delays(); }
  const net::BandwidthField& bandwidth() const { return backend_->bandwidth(); }
  const net::LoadField& load() const { return backend_->load(); }
  const coord::VivaldiSystem& coords() const { return coords_; }

  /// Substrate storage footprint: backend state plus the O(n) coordinate
  /// system (telemetry for the scale experiments).
  std::size_t memory_bytes() const;

  double now() const { return now_; }

  /// Advances the dynamic processes by `dt` seconds, landing on plane time
  /// `to`. A no-op when the substrate already reached `to` — that is how N
  /// lockstep measurement planes share one substrate without advancing it
  /// N times per step. (Planes whose advance schedules differ each pull the
  /// substrate forward by their own dt; determinism always holds, but
  /// equivalence with a solo run needs matching schedules.)
  void advance_step(double dt, double to);

 private:
  std::unique_ptr<net::UnderlayBackend> backend_;
  coord::VivaldiSystem coords_;
  EnvironmentConfig config_;
  std::uint64_t seed_;
  double now_ = 0.0;
};

/// One overlay's view of a Substrate: the true (oracle) quantities used for
/// scoring, plus the noisy measurement plane the overlay's nodes decide on
/// (ping EWMAs, bandwidth probe state, per-pair delay drift, load
/// estimators, and the measurement noise stream).
///
/// The owning constructor builds a private Substrate, which is the classic
/// single-overlay deployment. The sharing constructor attaches a fresh,
/// identically-seeded plane to an existing Substrate — the multi-overlay
/// host path: every plane seeded alike sees the same noise realization, so
/// concurrent overlays are compared under identical conditions exactly like
/// the paper's per-policy PlanetLab agents.
class Environment {
 public:
  Environment(std::size_t n, std::uint64_t seed, EnvironmentConfig config = {});

  /// Measurement-plane fork over a shared substrate; `seed` seeds this
  /// plane's noise streams the same way the owning constructor would.
  Environment(std::shared_ptr<Substrate> substrate, std::uint64_t seed);

  std::size_t size() const { return substrate_->size(); }

  const net::DelayField& delays() const { return substrate_->delays(); }
  const net::BandwidthField& bandwidth() const { return substrate_->bandwidth(); }
  const net::LoadField& load() const { return substrate_->load(); }
  const coord::VivaldiSystem& coords() const { return substrate_->coords(); }
  const std::shared_ptr<Substrate>& substrate() const { return substrate_; }

  /// --- True (oracle) per-link quantities, used to score overlays ---
  /// Base delay modulated by the current drift state.
  double true_delay(int i, int j) const;
  double true_load(int node) const { return substrate_->load().load(node); }
  double true_avail_bw(int i, int j) const {
    return substrate_->bandwidth().avail_bw(i, j);
  }

  /// --- Measured quantities, used by nodes to decide ---
  /// Ping estimates are smoothed across calls (EWMA, alpha = 0.3): nodes
  /// monitor links continuously and fold fresh samples into a running
  /// average rather than trusting a single epoch's probe.
  double measure_delay_ping(int i, int j);
  double measure_delay_coords(int i, int j) const {
    return substrate_->coords().estimate_one_way(i, j);
  }
  /// EWMA-smoothed load as the node itself reports it.
  double measure_load(int node) const;
  double measure_avail_bw(int i, int j) { return bw_probe_.estimate(i, j); }

  /// Advances this plane (and, when it is the first plane to reach the new
  /// time, the shared substrate) by dt seconds: bandwidth cross traffic,
  /// node load, one coordinate-maintenance round, load EWMAs, delay drift.
  void advance(double dt);

  double now() const { return now_; }

  /// --- Sparse-plane row bound ---
  /// Caps every sparse row at `targets` EWMAs (at most n; n until set). An
  /// overlay that cuts its rows before each measurement sets its bound
  /// here before its first ping. Each row is allocated once, at its node's
  /// first ping, with the smallest power-of-two capacity that keeps the
  /// bound at <= 3/4 load; a ping that would take a row past the bound
  /// throws std::length_error. Throws std::logic_error when a row is
  /// already allocated under another bound. A no-op on dense planes.
  void bound_rows(std::size_t targets);

  /// Cuts `prober`'s sparse row to the targets in `keep` (the spans may
  /// overlap): one pass over the row drops every other EWMA, and the next
  /// ping of a dropped target seeds a fresh one. The EWMAs it keeps are
  /// untouched. A no-op on dense planes.
  void cut_row(int prober, std::initializer_list<std::span<const int>> keep);

  /// --- Plane telemetry (scale experiments) ---
  /// True when this plane holds sparse per-row state instead of the dense
  /// n^2 arrays.
  bool sparse_plane() const { return sparse_plane_; }

  /// Directed pairs this plane holds an EWMA for. Pairs that no cut has
  /// dropped count once from their first ping on, so a plane that never
  /// cuts counts every pair it has pinged.
  std::size_t probed_pairs() const { return probed_pairs_; }

  /// Bytes of per-pair measurement state. Dense: the EWMA and drift
  /// arrays. Sparse: the row headers, every allocated row's slots and
  /// cut_row's scratch.
  std::size_t plane_memory_bytes() const;

 private:
  /// One probing node's ping EWMAs on the sparse plane: target id -> EWMA
  /// in an open-addressed table (linear probing, power-of-two capacity),
  /// held as two parallel slot arrays of 12 bytes a slot behind a 24-byte
  /// header. The slots are allocated once and never grow.
  class PingRow {
   public:
    bool allocated() const { return capacity_ > 0; }
    /// Gives the row `capacity` empty slots (a power of two).
    void allocate(std::uint32_t capacity);
    /// The EWMA slot of `target`; a new slot starts at NaN (no sample
    /// yet). Throws std::length_error when the row already holds `bound`
    /// targets.
    double& ewma(int target, std::uint32_t bound);
    /// Keeps the targets whose mark in `marks` equals `mark`, re-inserting
    /// them through `kept`; returns how many targets it dropped.
    std::uint32_t keep_marked(std::span<const std::uint32_t> marks,
                              std::uint32_t mark,
                              std::vector<std::pair<int, double>>& kept);
    std::size_t slot_bytes() const {
      return capacity_ * (sizeof(std::int32_t) + sizeof(double));
    }

   private:
    std::uint32_t find(int target) const;

    std::unique_ptr<std::int32_t[]> targets_;  ///< -1 marks an empty slot
    std::unique_ptr<double[]> values_;
    std::uint32_t size_ = 0;
    std::uint32_t capacity_ = 0;
  };

  double drift(int i, int j) const;
  /// `i`'s EWMA slot for `j` on the sparse plane; `i`'s first ping
  /// allocates its row.
  double& row_ewma(int i, int j);

  std::shared_ptr<Substrate> substrate_;
  net::BandwidthProber bw_probe_;
  std::vector<net::LoadEstimator> load_estimators_;
  bool sparse_plane_ = false;

  /// Dense plane (historical layout; bit-exact below the threshold).
  std::vector<double> ping_smoothed_;  ///< per-pair EWMA; NaN = no sample yet
  std::vector<double> delay_drift_;    ///< per-pair relative drift state

  /// Sparse plane: one EWMA row per probing node, holding at most
  /// row_bound_ targets in row_capacity_ slots; drift is a pure function of
  /// (plane drift seed, i, j, time) — no per-pair state.
  std::vector<PingRow> ping_rows_;
  std::uint32_t row_bound_ = 0;
  std::uint32_t row_capacity_ = 0;
  /// cut_row's scratch, sized at the plane's first cut: a target is kept
  /// when its mark equals keep_mark_, and the survivors re-insert through
  /// kept_.
  std::vector<std::uint32_t> keep_marks_;
  std::uint32_t keep_mark_ = 0;
  std::vector<std::pair<int, double>> kept_;
  std::uint64_t drift_seed_ = 0;
  double drift_amp_ = 0.0;
  double drift_tau_ = 1.0;

  std::size_t probed_pairs_ = 0;

  util::Rng rng_;
  double now_ = 0.0;
};

}  // namespace egoist::overlay
