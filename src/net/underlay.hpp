// Pluggable underlay backends — the substrate storage/compute tradeoff.
//
// DenseUnderlay bundles the historical stateful models (DelaySpace,
// BandwidthModel, LoadModel): n^2 storage, an O(n^2) advance() that walks
// every AR(1) cross-traffic process, and bit-exact reproduction of every
// figure for a fixed seed. That caps the §5 scaling study at a few hundred
// nodes.
//
// ProceduralUnderlay removes the wall: it stores only O(n) per-node
// attributes (cluster, plane position, access penalty, link capacities,
// base load) — each itself a pure function of (seed, node) via counter-
// based hashing, so node i's attributes do not depend on n — and computes
// every per-pair quantity on demand as a pure function of
// (seed, i, j, quantized time). Temporal variation comes from a hash
// lattice: an Ornstein-Uhlenbeck-like value is the smoothstep interpolation
// of unit Gaussians hashed at consecutive multiples of the process's
// correlation time, calibrated to the dense models' stationary moments.
// advance() is O(1): it moves the clock.
//
// The two backends produce *different realizations* of the same
// distributions — dense stays the reference for reproduced figures,
// procedural opens n in the tens of thousands (the scale_frontier
// experiment). Both are deterministic in (n, seed, config).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/bandwidth.hpp"
#include "net/delay_space.hpp"
#include "net/fields.hpp"
#include "net/load.hpp"

namespace egoist::net {

/// Which substrate backend a deployment runs on.
enum class UnderlayKind {
  kDense,       ///< stateful n^2 models (the default; bit-exact reference)
  kProcedural,  ///< counter-hashed O(n) substrate for the scale regime
};

const char* to_string(UnderlayKind kind);
UnderlayKind parse_underlay_kind(const std::string& name);

/// --- Counter-based hashing primitives (SplitMix64-style) ---
/// Exposed for tests and for measurement planes that derive procedural
/// noise (overlay::Environment's sparse delay drift).

/// Stateless mix of a seed and three counters into a uniform 64-bit word.
std::uint64_t counter_hash(std::uint64_t seed, std::uint64_t a,
                           std::uint64_t b, std::uint64_t c);

/// Uniform double in (0, 1) from a hash word.
double hash_unit(std::uint64_t h);

/// Standard normal from a hash word (Box-Muller over two derived uniforms).
double hash_gaussian(std::uint64_t h);

/// Stationary unit-variance OU-like noise: smoothstep interpolation of the
/// Gaussians hashed at floor(t/tau) and floor(t/tau)+1 on stream
/// (seed, a, b). Continuous in t, decorrelated beyond ~tau, and a pure
/// function of its arguments.
double ou_noise(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                double t, double tau);

/// One substrate backend: the three true-quantity fields plus the dynamic
/// clock. Field references stay valid for the backend's lifetime.
class UnderlayBackend {
 public:
  virtual ~UnderlayBackend() = default;

  virtual UnderlayKind kind() const = 0;
  virtual std::size_t size() const = 0;

  virtual const DelayField& delays() const = 0;
  virtual const BandwidthField& bandwidth() const = 0;
  virtual const LoadField& load() const = 0;

  /// Advances the dynamic processes by dt seconds. Dense: O(n^2) AR(1)
  /// sweeps. Procedural: O(1) (moves the clock).
  virtual void advance(double dt) = 0;

  /// Bytes of substrate state held by this backend (storage telemetry for
  /// the scale experiments; excludes the Vivaldi coordinate system, which
  /// is O(n) and backend-independent).
  virtual std::size_t memory_bytes() const = 0;
};

/// Exactly the historical substrate: the three stateful models constructed
/// with the seeds Substrate has always used, advanced in the same order,
/// so every fixed-seed figure output is byte-identical to the pre-seam
/// code.
class DenseUnderlay final : public UnderlayBackend {
 public:
  DenseUnderlay(std::size_t n, std::uint64_t seed, const GeoDelayConfig& geo,
                const BandwidthConfig& bandwidth, const LoadConfig& load);

  UnderlayKind kind() const override { return UnderlayKind::kDense; }
  std::size_t size() const override { return delays_.size(); }
  const DelayField& delays() const override { return delays_; }
  const BandwidthField& bandwidth() const override { return bandwidth_; }
  const LoadField& load() const override { return load_; }
  void advance(double dt) override;
  std::size_t memory_bytes() const override;

  /// The concrete models, for callers that need the full dense API.
  const DelaySpace& delay_space() const { return delays_; }
  const BandwidthModel& bandwidth_model() const { return bandwidth_; }
  const LoadModel& load_model() const { return load_; }

 private:
  DelaySpace delays_;
  BandwidthModel bandwidth_;
  LoadModel load_;
};

/// Knobs of the procedural substrate. The geo/bandwidth/load structures are
/// shared with the dense generators so one scenario config describes both
/// backends; the procedural backend additionally quantizes time.
struct ProceduralUnderlayConfig {
  GeoDelayConfig geo;
  BandwidthConfig bandwidth;
  LoadConfig load;
};

class ProceduralUnderlay final : public UnderlayBackend {
 public:
  ProceduralUnderlay(std::size_t n, std::uint64_t seed,
                     ProceduralUnderlayConfig config = {});

  UnderlayKind kind() const override { return UnderlayKind::kProcedural; }
  std::size_t size() const override { return n_; }
  const DelayField& delays() const override { return delay_field_; }
  const BandwidthField& bandwidth() const override { return bandwidth_field_; }
  const LoadField& load() const override { return load_field_; }
  void advance(double dt) override;
  std::size_t memory_bytes() const override;

  double now() const { return now_; }
  const ProceduralUnderlayConfig& config() const { return config_; }

  /// Cluster ("continent") of a node, mirroring planetlab_like_clusters.
  int cluster(int node) const;

  /// --- The pure per-pair functions (also reachable via the fields) ---
  double delay(int i, int j) const;
  /// Both directions of a pair: the three pair hashes, the geometric term
  /// and the skew are computed once for the two of them.
  DelayPair delay_pair(int i, int j) const;
  double capacity(int i, int j) const;
  double avail_bw(int i, int j) const;  ///< at the current model time
  double node_load(int node) const;     ///< at the current model time

 private:
  struct DelayView final : DelayField {
    const ProceduralUnderlay* owner = nullptr;
    std::size_t size() const override { return owner->n_; }
    double delay(int i, int j) const override { return owner->delay(i, j); }
    DelayPair delay_pair(int i, int j) const override {
      return owner->delay_pair(i, j);
    }
  };
  struct BandwidthView final : BandwidthField {
    const ProceduralUnderlay* owner = nullptr;
    std::size_t size() const override { return owner->n_; }
    double avail_bw(int i, int j) const override {
      return owner->avail_bw(i, j);
    }
    double capacity(int i, int j) const override {
      return owner->capacity(i, j);
    }
  };
  struct LoadView final : LoadField {
    const ProceduralUnderlay* owner = nullptr;
    std::size_t size() const override { return owner->n_; }
    double load(int node) const override { return owner->node_load(node); }
  };

  std::size_t check(int v) const;
  double cross_fraction(int i, int j) const;

  std::size_t n_;
  std::uint64_t seed_;
  ProceduralUnderlayConfig config_;
  double now_ = 0.0;

  /// O(n) per-node attributes; attr[i] is a pure function of (seed, i).
  std::vector<std::int32_t> cluster_;
  std::vector<double> pos_x_, pos_y_;   ///< delay-plane coordinates (ms)
  std::vector<double> access_;          ///< last-mile penalty (ms)
  std::vector<double> uplink_, downlink_;
  std::vector<double> load_base_;

  /// Derived stationary-moment calibration (see underlay.cpp).
  double jitter_sigma_ = 0.0;
  double mu_core_ = 0.0;
  double cross_std_ = 0.0, cross_tau_ = 1.0;
  double load_std_ = 0.0, load_tau_ = 1.0;

  DelayView delay_field_;
  BandwidthView bandwidth_field_;
  LoadView load_field_;
};

/// Factory used by overlay::Substrate: builds the requested backend with
/// the substrate's historical seeds.
std::unique_ptr<UnderlayBackend> make_underlay(
    UnderlayKind kind, std::size_t n, std::uint64_t seed,
    const GeoDelayConfig& geo, const BandwidthConfig& bandwidth,
    const LoadConfig& load);

}  // namespace egoist::net
