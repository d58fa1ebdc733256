#include "net/underlay.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace egoist::net {

const char* to_string(UnderlayKind kind) {
  switch (kind) {
    case UnderlayKind::kDense: return "dense";
    case UnderlayKind::kProcedural: return "procedural";
  }
  return "?";
}

UnderlayKind parse_underlay_kind(const std::string& name) {
  if (name == "dense") return UnderlayKind::kDense;
  if (name == "procedural") return UnderlayKind::kProcedural;
  throw std::invalid_argument("unknown underlay '" + name +
                              "' (want dense, procedural)");
}

namespace {

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Stream tags keeping the per-quantity hash streams decorrelated.
enum Stream : std::uint64_t {
  kCluster = 1,
  kPosX,
  kPosY,
  kAccess,
  kUplink,
  kDownlink,
  kLoadBase,
  kJitter,
  kViolation,
  kSkew,
  kCore,
  kCross,
  kLoadFluct,
  kSpikeHit,
  kSpikeTime,
  kSpikeMag,
};

}  // namespace

std::uint64_t counter_hash(std::uint64_t seed, std::uint64_t a,
                           std::uint64_t b, std::uint64_t c) {
  // Feed the counters through the finalizer one at a time; each pass fully
  // avalanches, so (seed, a, b, c) and any permutation-with-different-
  // values land in unrelated points of the output space.
  std::uint64_t h = splitmix64(seed ^ 0xA0761D6478BD642Full);
  h = splitmix64(h ^ a);
  h = splitmix64(h ^ (b + 0x8BB84B93962EACC9ull));
  h = splitmix64(h ^ (c + 0x2D358DCCAA6C78A5ull));
  return h;
}

double hash_unit(std::uint64_t h) {
  // 53 high bits -> (0, 1); never exactly 0 (log() safety below).
  return (static_cast<double>(h >> 11) + 0.5) * 0x1.0p-53;
}

double hash_gaussian(std::uint64_t h) {
  const double u1 = hash_unit(h);
  const double u2 = hash_unit(splitmix64(h ^ 0x6C62272E07BB0142ull));
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double ou_noise(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                double t, double tau) {
  if (tau <= 0.0) throw std::invalid_argument("tau must be positive");
  const double s = std::floor(t / tau);
  double f = t / tau - s;
  f = f * f * (3.0 - 2.0 * f);  // smoothstep: C1 across lattice points
  const auto step = static_cast<std::uint64_t>(static_cast<std::int64_t>(s));
  const double g0 = hash_gaussian(counter_hash(seed, a, b, step));
  const double g1 = hash_gaussian(counter_hash(seed, a, b, step + 1));
  // A raw (1-f, f) blend of independent unit Gaussians has variance
  // (1-f)^2 + f^2 < 1 away from the lattice points; renormalize so the
  // process is stationary unit-variance at every t (still C1).
  return ((1.0 - f) * g0 + f * g1) /
         std::sqrt((1.0 - f) * (1.0 - f) + f * f);
}

// --- DenseUnderlay ---

DenseUnderlay::DenseUnderlay(std::size_t n, std::uint64_t seed,
                             const GeoDelayConfig& geo,
                             const BandwidthConfig& bandwidth,
                             const LoadConfig& load)
    // Seeds and construction order are the historical Substrate's; figure
    // outputs for fixed seeds depend on them bit for bit.
    : delays_(make_planetlab_like(n, seed, geo)),
      bandwidth_(n, seed ^ 0xB00Bull, bandwidth),
      load_(n, seed ^ 0x10ADull, load) {}

void DenseUnderlay::advance(double dt) {
  bandwidth_.advance(dt);
  load_.advance(dt);
}

std::size_t DenseUnderlay::memory_bytes() const {
  const std::size_t n = delays_.size();
  // delay matrix + core/cross pair arrays + per-node vectors.
  return n * n * sizeof(double) * 3 + n * sizeof(double) * 5;
}

// --- ProceduralUnderlay ---

ProceduralUnderlay::ProceduralUnderlay(std::size_t n, std::uint64_t seed,
                                       ProceduralUnderlayConfig config)
    : n_(n), seed_(seed), config_(std::move(config)) {
  if (n < 2) throw std::invalid_argument("need >= 2 nodes");
  const auto& geo = config_.geo;
  if (geo.cluster_weights.empty()) {
    throw std::invalid_argument("cluster_weights must be non-empty");
  }
  double total_weight = 0.0;
  for (double w : geo.cluster_weights) {
    if (w < 0.0) throw std::invalid_argument("cluster weights must be >= 0");
    total_weight += w;
  }
  if (total_weight <= 0.0) {
    throw std::invalid_argument("cluster weights sum to zero");
  }

  // Same geometry as make_planetlab_like: cluster centers on a circle,
  // Gaussian scatter, Pareto access penalties — but every per-node draw is
  // a counter hash, so attributes are independent of n and of each other.
  const auto num_clusters = geo.cluster_weights.size();
  const double radius =
      num_clusters > 1
          ? geo.inter_cluster_ms /
                (2.0 * std::sin(std::numbers::pi /
                                static_cast<double>(num_clusters)))
          : 0.0;
  const double sigma = geo.intra_cluster_ms / 1.7724539;

  cluster_.resize(n);
  pos_x_.resize(n);
  pos_y_.resize(n);
  access_.resize(n);
  uplink_.resize(n);
  downlink_.resize(n);
  load_base_.resize(n);

  const auto& bw = config_.bandwidth;
  const double mu_up =
      std::log(bw.uplink_mean) - 0.5 * bw.uplink_sigma * bw.uplink_sigma;
  const auto& load = config_.load;

  for (std::size_t i = 0; i < n; ++i) {
    const auto node = static_cast<std::uint64_t>(i);
    double draw = hash_unit(counter_hash(seed_, node, kCluster, 0)) * total_weight;
    int c = static_cast<int>(num_clusters) - 1;
    for (std::size_t w = 0; w < num_clusters; ++w) {
      draw -= geo.cluster_weights[w];
      if (draw <= 0.0) {
        c = static_cast<int>(w);
        break;
      }
    }
    cluster_[i] = c;
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(c) /
                         static_cast<double>(num_clusters);
    pos_x_[i] = radius * std::cos(angle) +
                sigma * hash_gaussian(counter_hash(seed_, node, kPosX, 0));
    pos_y_[i] = radius * std::sin(angle) +
                sigma * hash_gaussian(counter_hash(seed_, node, kPosY, 0));
    access_[i] = geo.access_penalty_ms /
                 std::pow(hash_unit(counter_hash(seed_, node, kAccess, 0)),
                          1.0 / 1.5);
    uplink_[i] = std::exp(
        mu_up +
        bw.uplink_sigma * hash_gaussian(counter_hash(seed_, node, kUplink, 0)));
    downlink_[i] =
        std::exp(mu_up + bw.uplink_sigma *
                             hash_gaussian(counter_hash(seed_, node, kDownlink, 0))) *
        1.5;
    load_base_[i] = std::exp(
        load.base_mu +
        load.base_sigma * hash_gaussian(counter_hash(seed_, node, kLoadBase, 0)));
  }

  // Stationary-moment calibration against the dense AR(1) processes: a
  // discrete OU with innovation sigma_e*sqrt(dt) and pull theta*dt has
  // stationary standard deviation sigma_e / sqrt(2 theta) and correlation
  // time 1/theta.
  jitter_sigma_ = std::sqrt(std::log1p(geo.jitter * geo.jitter));
  mu_core_ = std::log(bw.core_mean) - 0.5 * bw.core_sigma * bw.core_sigma;
  cross_tau_ = bw.revert_rate > 0.0 ? 1.0 / bw.revert_rate : 1.0;
  cross_std_ = bw.revert_rate > 0.0
                   ? bw.cross_volatility * bw.cross_fraction /
                         std::sqrt(2.0 * bw.revert_rate)
                   : 0.0;
  load_tau_ = load.revert_rate > 0.0 ? 1.0 / load.revert_rate : 1.0;
  load_std_ = load.revert_rate > 0.0
                  ? load.volatility / std::sqrt(2.0 * load.revert_rate)
                  : 0.0;

  delay_field_.owner = this;
  bandwidth_field_.owner = this;
  load_field_.owner = this;
}

std::size_t ProceduralUnderlay::check(int v) const {
  if (v < 0 || static_cast<std::size_t>(v) >= n_) {
    throw std::out_of_range("node id out of range");
  }
  return static_cast<std::size_t>(v);
}

int ProceduralUnderlay::cluster(int node) const {
  return cluster_[check(node)];
}

DelayPair ProceduralUnderlay::delay_pair(int i, int j) const {
  const std::size_t a = check(i);
  const std::size_t b = check(j);
  if (a == b) return {0.0, 0.0};
  const auto lo = static_cast<std::uint64_t>(std::min(a, b));
  const auto hi = static_cast<std::uint64_t>(std::max(a, b));
  const auto& geo = config_.geo;

  // Swapping a and b only negates dx and dy, so the distance, the three
  // pair hashes and the skew serve both directions. Each direction keeps
  // its own sum order (its source's access penalty first), so each equals
  // the one-direction expression bit for bit.
  const double dx = pos_x_[a] - pos_x_[b];
  const double dy = pos_y_[a] - pos_y_[b];
  const double geo_ms = std::sqrt(dx * dx + dy * dy);
  const double jitter =
      std::exp(-0.5 * jitter_sigma_ * jitter_sigma_ +
               jitter_sigma_ * hash_gaussian(counter_hash(seed_, lo, hi, kJitter)));
  const double forward = geo_ms * jitter + access_[a] + access_[b];
  const double backward = geo_ms * jitter + access_[b] + access_[a];
  const double inflated =
      hash_unit(counter_hash(seed_, lo, hi, kViolation)) < geo.violation_fraction
          ? geo.violation_factor
          : 1.0;
  const double skew =
      1.0 + geo.asymmetry *
                (2.0 * hash_unit(counter_hash(seed_, lo, hi, kSkew)) - 1.0);
  // The lower id's direction is stretched by the skew, the other shrunk.
  if (a < b) return {forward * inflated * skew, backward * inflated / skew};
  return {forward * inflated / skew, backward * inflated * skew};
}

double ProceduralUnderlay::delay(int i, int j) const {
  return delay_pair(i, j).forward;
}

double ProceduralUnderlay::capacity(int i, int j) const {
  const std::size_t a = check(i);
  const std::size_t b = check(j);
  if (a == b) throw std::invalid_argument("no self pair");
  const auto& bw = config_.bandwidth;
  const double core = std::exp(
      mu_core_ + bw.core_sigma * hash_gaussian(counter_hash(
                     seed_, static_cast<std::uint64_t>(a),
                     static_cast<std::uint64_t>(b) + (kCore << 32), kCore)));
  return std::min({uplink_[a], downlink_[b], core});
}

double ProceduralUnderlay::cross_fraction(int i, int j) const {
  const auto& bw = config_.bandwidth;
  const double noise =
      ou_noise(seed_ ^ 0xC505ull, static_cast<std::uint64_t>(i),
               static_cast<std::uint64_t>(j) + (kCross << 32), now_, cross_tau_);
  return std::clamp(bw.cross_fraction + cross_std_ * noise, 0.0, 0.95);
}

double ProceduralUnderlay::avail_bw(int i, int j) const {
  return std::max(0.0, capacity(i, j) * (1.0 - cross_fraction(i, j)));
}

double ProceduralUnderlay::node_load(int node) const {
  const std::size_t v = check(node);
  const auto& load = config_.load;
  const double base = load_base_[v];
  const double fluct =
      load_std_ * base *
      ou_noise(seed_ ^ 0x10ADF1ull, static_cast<std::uint64_t>(v), kLoadFluct,
               now_, load_tau_);
  // Spikes: at most one per window of the dense model's expected inter-
  // spike time; the window and its predecessor cover the decay tail.
  double spike = 0.0;
  if (load.spike_rate > 0.0) {
    const double window = 1.0 / load.spike_rate;
    const double hit_p = 1.0 - std::exp(-1.0);  // ~ one spike per window
    const auto w0 = static_cast<std::int64_t>(std::floor(now_ / window));
    for (std::int64_t w = w0 - 1; w <= w0; ++w) {
      const auto wu = static_cast<std::uint64_t>(w);
      if (hash_unit(counter_hash(seed_ ^ 0x5B1CEull,
                                 static_cast<std::uint64_t>(v), kSpikeHit,
                                 wu)) >= hit_p) {
        continue;
      }
      const double start =
          (static_cast<double>(w) +
           hash_unit(counter_hash(seed_ ^ 0x5B1CEull,
                                  static_cast<std::uint64_t>(v), kSpikeTime,
                                  wu))) *
          window;
      if (now_ < start) continue;
      const double mag =
          load.spike_magnitude * base *
          (0.5 + hash_unit(counter_hash(seed_ ^ 0x5B1CEull,
                                        static_cast<std::uint64_t>(v),
                                        kSpikeMag, wu)));
      spike += mag * std::exp(-load.spike_decay * (now_ - start));
    }
  }
  return std::max(0.05, base + fluct + spike);
}

void ProceduralUnderlay::advance(double dt) {
  if (dt < 0.0) throw std::invalid_argument("dt must be >= 0");
  now_ += dt;
}

std::size_t ProceduralUnderlay::memory_bytes() const {
  return n_ * (sizeof(std::int32_t) + 6 * sizeof(double));
}

std::unique_ptr<UnderlayBackend> make_underlay(UnderlayKind kind, std::size_t n,
                                               std::uint64_t seed,
                                               const GeoDelayConfig& geo,
                                               const BandwidthConfig& bandwidth,
                                               const LoadConfig& load) {
  switch (kind) {
    case UnderlayKind::kDense:
      return std::make_unique<DenseUnderlay>(n, seed, geo, bandwidth, load);
    case UnderlayKind::kProcedural: {
      ProceduralUnderlayConfig config;
      config.geo = geo;
      config.bandwidth = bandwidth;
      config.load = load;
      return std::make_unique<ProceduralUnderlay>(n, seed, std::move(config));
    }
  }
  throw std::invalid_argument("unknown underlay kind");
}

}  // namespace egoist::net
