#include "overlay/environment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace egoist::overlay {

Substrate::Substrate(std::size_t n, std::uint64_t seed, EnvironmentConfig config)
    : backend_(net::make_underlay(config.underlay, n, seed, config.geo,
                                  config.bandwidth, config.load)),
      coords_(backend_->delays(), seed ^ 0xC00Dull, config.vivaldi),
      config_(config),
      seed_(seed) {
  coords_.converge(config.coord_warmup_rounds);
}

void Substrate::advance_step(double dt, double to) {
  if (to <= now_) return;  // another plane already pulled us here
  backend_->advance(dt);
  coords_.tick();  // one coordinate-maintenance round per advance
  now_ = to;
}

std::size_t Substrate::memory_bytes() const {
  // Vivaldi: one coordinate (position + height) and one error term per node.
  const std::size_t coords =
      size() * (sizeof(coord::Coordinate) + sizeof(double));
  return backend_->memory_bytes() + coords;
}

namespace {

constexpr std::int32_t kEmptySlot = -1;

/// The smallest power-of-two slot count that holds `bound` targets at
/// <= 3/4 load, so linear probing always finds an empty slot.
std::uint32_t row_capacity(std::uint32_t bound) {
  std::uint32_t capacity = 1;
  while (4 * static_cast<std::uint64_t>(bound) >
         3 * static_cast<std::uint64_t>(capacity)) {
    capacity *= 2;
  }
  return capacity;
}

}  // namespace

std::uint32_t Environment::PingRow::find(int target) const {
  // Fibonacci hashing: node ids are dense small integers, so spread them
  // with the multiplier's middle bits before masking.
  const std::uint32_t mask = capacity_ - 1;
  auto s = static_cast<std::uint32_t>(
               (static_cast<std::uint64_t>(static_cast<std::uint32_t>(target)) *
                0x9E3779B97F4A7C15ull) >>
               32) &
           mask;
  while (targets_[s] != target && targets_[s] != kEmptySlot) s = (s + 1) & mask;
  return s;
}

void Environment::PingRow::allocate(std::uint32_t capacity) {
  capacity_ = capacity;
  targets_ = std::make_unique<std::int32_t[]>(capacity_);
  values_ = std::make_unique<double[]>(capacity_);
  std::fill_n(targets_.get(), capacity_, kEmptySlot);
}

double& Environment::PingRow::ewma(int target, std::uint32_t bound) {
  const std::uint32_t s = find(target);
  if (targets_[s] == target) return values_[s];
  if (size_ >= bound) {
    throw std::length_error("ping row already holds its bound of targets");
  }
  ++size_;
  targets_[s] = target;
  values_[s] = std::numeric_limits<double>::quiet_NaN();
  return values_[s];
}

std::uint32_t Environment::PingRow::keep_marked(
    std::span<const std::uint32_t> marks, std::uint32_t mark,
    std::vector<std::pair<int, double>>& kept) {
  kept.clear();
  for (std::uint32_t s = 0; s < capacity_; ++s) {
    const std::int32_t target = targets_[s];
    if (target != kEmptySlot &&
        marks[static_cast<std::size_t>(target)] == mark) {
      kept.emplace_back(target, values_[s]);
    }
  }
  const auto dropped = size_ - static_cast<std::uint32_t>(kept.size());
  if (dropped == 0) return 0;
  // Linear probing cannot punch holes into a probe chain, so the survivors
  // re-insert into emptied slots; their values move bit for bit.
  std::fill_n(targets_.get(), capacity_, kEmptySlot);
  for (const auto& [target, value] : kept) {
    const std::uint32_t s = find(target);
    targets_[s] = target;
    values_[s] = value;
  }
  size_ = static_cast<std::uint32_t>(kept.size());
  return dropped;
}

Environment::Environment(std::size_t n, std::uint64_t seed,
                         EnvironmentConfig config)
    : Environment(std::make_shared<Substrate>(n, seed, config), seed) {}

Environment::Environment(std::shared_ptr<Substrate> substrate,
                         std::uint64_t seed)
    : substrate_(std::move(substrate)),
      bw_probe_(substrate_->bandwidth(), seed ^ 0xBEEFull,
                substrate_->config().bw_probe_error),
      rng_(seed ^ 0xE417ull),
      now_(substrate_->now()) {
  const auto& config = substrate_->config();
  const std::size_t n = substrate_->size();
  sparse_plane_ = config.underlay == net::UnderlayKind::kProcedural ||
                  n >= config.sparse_plane_threshold;
  if (!sparse_plane_) {
    // Historical dense plane: state laid out exactly as the pre-backend
    // Environment did, so fixed-seed figure runs stay byte-identical.
    ping_smoothed_.assign(n * n, std::numeric_limits<double>::quiet_NaN());
    delay_drift_.assign(n * n, 0.0);
  } else {
    // Sparse plane: ping EWMAs materialize per probed pair, in the prober's
    // row; drift is the procedural hash stream below (stationary moments
    // calibrated to the dense OU process), so advance() needs no per-pair
    // sweep.
    ping_rows_.resize(n);
    row_bound_ = static_cast<std::uint32_t>(n);
    row_capacity_ = row_capacity(row_bound_);
    drift_seed_ = seed ^ 0xD21F7ull;
    drift_tau_ = config.delay_drift_reversion > 0.0
                     ? 1.0 / config.delay_drift_reversion
                     : 1.0;
    drift_amp_ = config.delay_drift_reversion > 0.0
                     ? config.delay_drift_volatility /
                           std::sqrt(2.0 * config.delay_drift_reversion)
                     : 0.0;
  }
  load_estimators_.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    load_estimators_.emplace_back(60.0);
    load_estimators_.back().observe(substrate_->load().load(static_cast<int>(v)),
                                    0.0);
  }
}

double Environment::drift(int i, int j) const {
  if (!sparse_plane_) {
    return delay_drift_[static_cast<std::size_t>(i) * size() +
                        static_cast<std::size_t>(j)];
  }
  const auto& config = substrate_->config();
  const double d = drift_amp_ * net::ou_noise(drift_seed_,
                                              static_cast<std::uint64_t>(i),
                                              static_cast<std::uint64_t>(j),
                                              now_, drift_tau_);
  return std::clamp(d, -config.delay_drift_cap, config.delay_drift_cap);
}

double Environment::true_delay(int i, int j) const {
  const double base = substrate_->delays().delay(i, j);
  return base * (1.0 + drift(i, j));
}

double& Environment::row_ewma(int i, int j) {
  PingRow& row = ping_rows_[static_cast<std::size_t>(i)];
  if (!row.allocated()) row.allocate(row_capacity_);
  return row.ewma(j, row_bound_);
}

double Environment::measure_delay_ping(int i, int j) {
  const auto& config = substrate_->config();
  // RTT/2 averaged over ping_samples probes; queueing noise only adds. The
  // RTT is true_delay(i, j) + true_delay(j, i), on one base-delay call.
  const net::DelayPair base = substrate_->delays().delay_pair(i, j);
  const double rtt =
      base.forward * (1.0 + drift(i, j)) + base.backward * (1.0 + drift(j, i));
  double sum = 0.0;
  for (int s = 0; s < config.ping_samples; ++s) {
    sum += rtt + std::abs(rng_.normal(0.0, config.ping_jitter_ms));
  }
  const double sample = sum / config.ping_samples / 2.0;

  double& smoothed =
      sparse_plane_
          ? row_ewma(i, j)
          : ping_smoothed_[static_cast<std::size_t>(i) * size() +
                           static_cast<std::size_t>(j)];
  if (std::isnan(smoothed)) {
    smoothed = sample;
    ++probed_pairs_;
  } else {
    // Nodes monitor links continuously; fold fresh samples into a running
    // average rather than trusting a single epoch's probe.
    constexpr double kAlpha = 0.3;
    smoothed = (1.0 - kAlpha) * smoothed + kAlpha * sample;
  }
  return smoothed;
}

double Environment::measure_load(int node) const {
  const auto& est = load_estimators_.at(static_cast<std::size_t>(node));
  return est.has_estimate() ? est.estimate() : 0.0;
}

void Environment::advance(double dt) {
  now_ += dt;
  substrate_->advance_step(dt, now_);
  for (std::size_t v = 0; v < load_estimators_.size(); ++v) {
    load_estimators_[v].observe(substrate_->load().load(static_cast<int>(v)),
                                now_);
  }
  if (sparse_plane_) return;  // drift is procedural: nothing to sweep
  // Mean-reverting relative delay drift per directed pair.
  const auto& config = substrate_->config();
  const double pull = std::min(1.0, config.delay_drift_reversion * dt);
  const double noise = config.delay_drift_volatility * std::sqrt(dt);
  for (double& d : delay_drift_) {
    d = (1.0 - pull) * d + noise * rng_.normal(0.0, 1.0);
    d = std::clamp(d, -config.delay_drift_cap, config.delay_drift_cap);
  }
}

void Environment::bound_rows(std::size_t targets) {
  if (!sparse_plane_) return;
  const auto bound = static_cast<std::uint32_t>(std::min(targets, size()));
  if (bound == row_bound_) return;
  for (const PingRow& row : ping_rows_) {
    if (row.allocated()) {
      throw std::logic_error("bound_rows after a row was allocated");
    }
  }
  row_bound_ = bound;
  row_capacity_ = row_capacity(bound);
}

void Environment::cut_row(int prober,
                          std::initializer_list<std::span<const int>> keep) {
  if (!sparse_plane_) return;
  PingRow& row = ping_rows_[static_cast<std::size_t>(prober)];
  if (!row.allocated()) return;
  if (keep_marks_.empty()) {
    // Sized once, so the plane's footprint stays fixed from here on.
    keep_marks_.assign(size(), 0);
    kept_.reserve(row_bound_);
  }
  if (++keep_mark_ == 0) {  // wrapped: no stale mark may match
    std::fill(keep_marks_.begin(), keep_marks_.end(), 0);
    keep_mark_ = 1;
  }
  for (const auto targets : keep) {
    for (const int t : targets) {
      keep_marks_[static_cast<std::size_t>(t)] = keep_mark_;
    }
  }
  probed_pairs_ -= row.keep_marked(keep_marks_, keep_mark_, kept_);
}

std::size_t Environment::plane_memory_bytes() const {
  if (!sparse_plane_) {
    return (ping_smoothed_.size() + delay_drift_.size()) * sizeof(double);
  }
  std::size_t bytes = ping_rows_.capacity() * sizeof(PingRow) +
                      keep_marks_.capacity() * sizeof(std::uint32_t) +
                      kept_.capacity() * sizeof(std::pair<int, double>);
  for (const PingRow& row : ping_rows_) bytes += row.slot_bytes();
  return bytes;
}

}  // namespace egoist::overlay
