// OverlayHost — the front door of the library.
//
// One host owns one substrate (overlay::Substrate) and one discrete-event
// clock (sim::Simulator) and manages N concurrent overlays on top, the way
// the paper's PlanetLab deployment ran one EGOIST agent per policy/metric
// on one shared node set. Overlays are deployed from a fluent OverlaySpec
// and addressed through opaque OverlayHandles; their wiring epochs,
// staggered per-node re-evaluations, and churn arrivals all run as
// simulator events, so "advance the deployment" is one call into the
// event loop instead of per-experiment glue.
//
// Reads are decoupled from the mutation path: queries return immutable
// WiringSnapshot values (host/wiring_snapshot.hpp), and the typed
// subscription API (on_rewire / on_epoch_end / on_membership_change)
// pushes engine activity out to observers — exp::ResultSink consumers plug
// in directly. The per-overlay engine behind a handle is
// overlay::EgoistNetwork, which is no longer the public face of the
// library (docs/ARCHITECTURE.md, "Porting from EgoistNetwork").
//
// Determinism contract: every overlay gets its own measurement plane
// (overlay::Environment fork) seeded from the host seed, and the shared
// substrate advances once per point in virtual time. Overlays whose
// drivers advance in lockstep therefore observe exactly the realization a
// solo run with the same seeds would — N overlays on one host score
// bit-identically to N single-overlay hosts (the lockstep test pins this).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "churn/churn.hpp"
#include "host/wiring_snapshot.hpp"
#include "overlay/config.hpp"
#include "overlay/environment.hpp"
#include "overlay/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace egoist::host {

/// How an overlay's re-evaluations are scheduled (§4.2).
enum class EpochMode {
  /// Every online node re-evaluates once per epoch_period, in a shuffled
  /// order, as one simulator event (EgoistNetwork::run_epoch).
  kSynchronized,
  /// One node re-evaluates every epoch_period / n seconds (the paper's
  /// unsynchronized deployment; the churn experiments' scheduling). Churn
  /// events are applied in time order between evaluations.
  kStaggered,
};

/// Fluent description of one overlay deployment. Chain setters and hand
/// the result to OverlayHost::deploy:
///
///   auto h = host.deploy(OverlaySpec()
///                            .policy(overlay::Policy::kHybridBR)
///                            .k(5)
///                            .seed(42)
///                            .epoch_period(60.0)
///                            .staggered(/*order_seed=*/7)
///                            .churn(trace));
class OverlaySpec {
 public:
  OverlaySpec() = default;
  /// Starts from a fully-populated engine config (the escape hatch for
  /// knobs without a dedicated fluent setter).
  explicit OverlaySpec(overlay::OverlayConfig config) : config_(std::move(config)) {}

  OverlaySpec& policy(overlay::Policy value) { config_.policy = value; return *this; }
  OverlaySpec& metric(overlay::Metric value) { config_.metric = value; return *this; }
  OverlaySpec& k(std::size_t value) { config_.k = value; return *this; }
  OverlaySpec& seed(std::uint64_t value) { config_.seed = value; return *this; }
  OverlaySpec& epsilon(double value) { config_.epsilon = value; return *this; }
  OverlaySpec& donated_links(std::size_t value) { config_.donated_links = value; return *this; }
  OverlaySpec& backbone(overlay::Backbone value) { config_.backbone = value; return *this; }
  OverlaySpec& rewire_mode(overlay::RewireMode value) { config_.rewire_mode = value; return *this; }
  OverlaySpec& cheaters(std::vector<int> nodes, double factor) {
    config_.cheaters = std::move(nodes);
    config_.cheat_factor = factor;
    return *this;
  }
  OverlaySpec& audits(bool enable) {
    config_.enable_audits = enable;
    return *this;
  }
  /// Wiring-epoch worker threads (overlay::OverlayConfig::epoch_workers):
  /// a pure speed setting in scale mode (one trajectory at every value);
  /// a dense deploy takes 0 only.
  OverlaySpec& workers(int value) { config_.epoch_workers = value; return *this; }
  OverlaySpec& preference_zipf(double exponent) {
    config_.preference_zipf_exponent = exponent;
    return *this;
  }
  /// Incremental dirty-set epochs (overlay::OverlayConfig::incremental):
  /// only invalidated nodes re-evaluate. drift_threshold 0 = exact mode
  /// (bit-identical trajectories to the full recompute), > 0 = tolerance
  /// mode (selective marking + per-link drift probes).
  OverlaySpec& incremental(bool enable, double drift_threshold = 0.0) {
    config_.incremental = enable;
    config_.drift_threshold = drift_threshold;
    return *this;
  }

  /// Wiring-epoch length T in virtual seconds (default 60, the deployed
  /// system's default).
  OverlaySpec& epoch_period(double seconds) { epoch_period_ = seconds; return *this; }

  /// Synchronized epochs (the default).
  OverlaySpec& synchronized() { mode_ = EpochMode::kSynchronized; return *this; }

  /// Staggered per-node evaluation; `order_seed` seeds the per-epoch
  /// evaluation-order shuffle stream.
  OverlaySpec& staggered(std::uint64_t order_seed) {
    mode_ = EpochMode::kStaggered;
    order_seed_ = order_seed;
    return *this;
  }

  /// Per-occurrence scheduling offset for this overlay's driver (see
  /// sim::PeriodicTask::JitterFn) — desynchronizes concurrent overlays'
  /// event interleaving without moving the nominal epoch grid.
  OverlaySpec& epoch_jitter(sim::PeriodicTask::JitterFn fn) {
    jitter_ = std::move(fn);
    return *this;
  }

  /// Replays `trace` against this overlay: its initial ON/OFF state is
  /// applied at deploy time, its events in time order on the overlay's
  /// own timeline — trace time 0 is the moment of deployment, and events
  /// are applied as the overlay's nominal epoch/slot grid passes them
  /// (deploying at t > 0 shifts the whole replay, it does not skip
  /// events). The trace's node count must match the host's.
  OverlaySpec& churn(churn::ChurnTrace trace) {
    churn_ = std::make_shared<const churn::ChurnTrace>(std::move(trace));
    return *this;
  }
  OverlaySpec& churn(std::shared_ptr<const churn::ChurnTrace> trace) {
    churn_ = std::move(trace);
    return *this;
  }

  /// Optional display name (events and debugging).
  OverlaySpec& name(std::string value) { name_ = std::move(value); return *this; }

  const overlay::OverlayConfig& config() const { return config_; }
  double get_epoch_period() const { return epoch_period_; }
  EpochMode get_mode() const { return mode_; }
  std::uint64_t get_order_seed() const { return order_seed_; }
  const sim::PeriodicTask::JitterFn& get_jitter() const { return jitter_; }
  const std::shared_ptr<const churn::ChurnTrace>& get_churn() const { return churn_; }
  const std::string& get_name() const { return name_; }

 private:
  overlay::OverlayConfig config_;
  double epoch_period_ = 60.0;
  EpochMode mode_ = EpochMode::kSynchronized;
  std::uint64_t order_seed_ = 0;
  sim::PeriodicTask::JitterFn jitter_;
  std::shared_ptr<const churn::ChurnTrace> churn_;
  std::string name_;
};

/// Opaque reference to a deployed overlay. Value type; cheap to copy.
struct OverlayHandle {
  std::uint32_t id = 0;  ///< 0 = invalid
  bool valid() const { return id != 0; }
  friend bool operator==(OverlayHandle a, OverlayHandle b) { return a.id == b.id; }
  friend bool operator!=(OverlayHandle a, OverlayHandle b) { return a.id != b.id; }
  friend bool operator<(OverlayHandle a, OverlayHandle b) { return a.id < b.id; }
};

/// A node adopted a new wiring (this is what total_rewirings counts).
struct RewireEvent {
  OverlayHandle overlay;
  double time = 0.0;  ///< virtual time of the adoption
  int epoch = 0;      ///< 1-based epoch in progress
  int node = -1;
  std::vector<NodeId> old_wiring;
  std::vector<NodeId> new_wiring;
};

/// One wiring epoch completed (synchronized: one run_epoch; staggered: n
/// evaluation slots).
struct EpochEvent {
  OverlayHandle overlay;
  double time = 0.0;
  int epoch = 0;      ///< 1-based count of completed epochs
  int rewired = 0;    ///< re-wirings during this epoch
  std::size_t online_count = 0;
  std::uint64_t total_rewirings = 0;
  /// Node evaluations performed / skipped during this epoch (skipped is
  /// nonzero only for overlays deployed with OverlaySpec::incremental).
  std::uint64_t evaluated = 0;
  std::uint64_t skipped = 0;
  /// Nodes still marked for re-evaluation at the epoch boundary (n for
  /// non-incremental overlays).
  std::size_t dirty_nodes = 0;
};

/// A node joined or left (churn).
struct MembershipEvent {
  OverlayHandle overlay;
  double time = 0.0;
  int epoch = 0;      ///< 1-based epoch in progress
  int node = -1;
  bool online = false;
};

using SubscriptionId = std::uint64_t;

class OverlayHost {
 public:
  /// A host for n substrate nodes; `seed` derives the substrate processes
  /// and every overlay's measurement-plane noise streams (identically per
  /// overlay — the paper's identical-conditions comparison).
  OverlayHost(std::size_t n, std::uint64_t seed,
              overlay::EnvironmentConfig env_config = {});

  /// Not movable: every deployed driver captures this host and schedules
  /// on its simulator, so the host must stay put for its lifetime.
  OverlayHost(const OverlayHost&) = delete;
  OverlayHost& operator=(const OverlayHost&) = delete;
  OverlayHost(OverlayHost&&) = delete;
  OverlayHost& operator=(OverlayHost&&) = delete;

  std::size_t size() const { return substrate_->size(); }
  std::uint64_t seed() const { return seed_; }

  /// Virtual time (the simulator clock).
  double now() const { return sim_.now(); }
  sim::Simulator& simulator() { return sim_; }
  const std::shared_ptr<overlay::Substrate>& substrate() const { return substrate_; }

  /// --- Deployment ---
  OverlayHandle deploy(const OverlaySpec& spec);

  /// Tears the overlay down: its driver stops, its subscriptions drop, its
  /// handle goes invalid. Snapshots taken earlier stay valid (immutable).
  /// Safe to call from inside a subscription callback — retiring the
  /// overlay whose event is being dispatched completes the in-flight epoch
  /// step (without further callbacks) and releases the engine at the next
  /// safe point.
  void retire(OverlayHandle handle);

  /// Deployed overlays, in deployment order.
  std::vector<OverlayHandle> overlays() const;
  bool alive(OverlayHandle handle) const;

  /// --- Driving the deployment ---
  /// Runs the event loop until `handle` completes `epochs` more epochs.
  /// Concurrent overlays advance together (their events interleave on the
  /// shared clock).
  void run_epochs(OverlayHandle handle, int epochs);

  /// Runs until every deployed overlay completes `epochs` more epochs.
  void run_epochs(int epochs);

  /// Raw clock control (run_until executes events at exactly `until`).
  void run_for(double seconds);
  void run_until(double until);

  /// --- Typed event subscriptions ---
  /// Callbacks for one event fire in subscription order; subscription ids
  /// are assigned in creation order and stable across runs, so observer
  /// sequences are as deterministic as the trajectory itself.
  SubscriptionId on_rewire(OverlayHandle handle,
                           std::function<void(const RewireEvent&)> fn);
  SubscriptionId on_epoch_end(OverlayHandle handle,
                              std::function<void(const EpochEvent&)> fn);
  SubscriptionId on_membership_change(
      OverlayHandle handle, std::function<void(const MembershipEvent&)> fn);
  void unsubscribe(SubscriptionId id);

  /// --- Queries ---
  /// Immutable state capture; see host/wiring_snapshot.hpp.
  WiringSnapshot snapshot(OverlayHandle handle) const;

  int epochs_run(OverlayHandle handle) const;
  std::uint64_t total_rewirings(OverlayHandle handle) const;

  /// This overlay's measurement plane (read-mostly; advanced by the
  /// overlay's driver). Exposed for applications that combine overlay
  /// state with substrate quantities (e.g. the multipath experiments read
  /// bandwidth().)
  overlay::Environment& environment(OverlayHandle handle);

  /// Escape hatch to the per-overlay engine, for benchmarks and engine
  /// tests that time or probe internals directly. Mutating the engine
  /// outside the host's drivers voids the host's epoch accounting —
  /// production callers use deploy/run_epochs/snapshot instead.
  overlay::EgoistNetwork& network(OverlayHandle handle);

 private:
  struct Managed {
    OverlayHandle handle;
    OverlaySpec spec;
    std::unique_ptr<overlay::Environment> env;
    std::unique_ptr<overlay::EgoistNetwork> net;
    std::unique_ptr<sim::PeriodicTask> driver;
    util::Rng order_rng{0};          ///< staggered: per-epoch shuffle stream
    std::vector<NodeId> order;       ///< staggered: this epoch's order
    std::size_t turn = 0;            ///< staggered: next index into order
    std::uint64_t slots = 0;         ///< staggered: evaluation slots fired
    std::size_t churn_cursor = 0;    ///< next unapplied trace event
    int epochs = 0;                  ///< completed epochs
    std::uint64_t rewire_mark = 0;   ///< total_rewirings at last epoch end
    std::uint64_t eval_mark = 0;     ///< total_evaluations at last epoch end
    std::uint64_t skip_mark = 0;     ///< total_skipped_evals at last epoch end
    int tick_depth = 0;              ///< this overlay's ticks on the stack
    bool hooks_dirty = false;        ///< engine hooks need a refresh
  };

  struct Subscription {
    SubscriptionId id = 0;
    std::uint32_t overlay = 0;
    std::function<void(const RewireEvent&)> rewire;
    std::function<void(const EpochEvent&)> epoch;
    std::function<void(const MembershipEvent&)> membership;
  };

  Managed& managed(OverlayHandle handle);
  const Managed& managed(OverlayHandle handle) const;

  /// Destroys retired engines once no tick is executing. Retirement from
  /// inside a callback parks the Managed (driver stopped, subscriptions
  /// gone, handle invalid) in retired_ so the in-flight tick's closures
  /// and engine stay alive until the event unwinds.
  void purge_retired();

  void tick(Managed& m);
  /// Installs the hooks refresh_hooks computed, immediately when no tick
  /// of this overlay is on the stack (a hook of this overlay could be the
  /// caller's caller), deferred to the tick boundary otherwise.
  void apply_hooks(Managed& m);
  void tick_synchronized(Managed& m);
  void tick_staggered(Managed& m);
  /// Applies trace events with time <= t (replay_churn's ordering).
  void apply_churn(Managed& m, double t);
  void finish_epoch(Managed& m, int rewired);

  /// (Re)installs the engine observers for one overlay based on its
  /// current subscriptions — hooks exist only while someone listens, so
  /// unobserved engines pay nothing for the event layer.
  void refresh_hooks(std::uint32_t overlay_id);

  template <typename Event, typename Member>
  void dispatch(std::uint32_t overlay, const Event& event, Member member) const;

  std::shared_ptr<overlay::Substrate> substrate_;
  std::uint64_t seed_;
  sim::Simulator sim_;
  std::map<std::uint32_t, std::unique_ptr<Managed>> overlays_;
  std::vector<std::unique_ptr<Managed>> retired_;  ///< awaiting safe destruction
  int tick_depth_ = 0;  ///< driver events on the stack (nesting included)
  std::uint32_t next_overlay_id_ = 1;
  std::vector<Subscription> subscriptions_;
  SubscriptionId next_subscription_id_ = 1;
};

}  // namespace egoist::host
