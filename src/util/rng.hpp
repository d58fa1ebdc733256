// Deterministic pseudo-random number generation for simulations.
//
// Every stochastic component in the EGOIST reproduction draws from an
// explicitly seeded Rng so that experiments are reproducible run-to-run.
// The class wraps std::mt19937_64 and provides the distributions the
// underlay/churn/policy models need (uniform, exponential, Pareto,
// log-normal, normal) plus sampling helpers.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

namespace egoist::util {

/// Seeded pseudo-random generator with simulation-oriented helpers.
///
/// Copyable: copying an Rng forks the stream (both copies continue from the
/// same state). Use split() to derive an independent child stream.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : engine_(seed) {}

  /// Derives an independently seeded child generator. Children created with
  /// distinct tags are decorrelated from each other and from the parent.
  Rng split(std::uint64_t tag) {
    const std::uint64_t mixed =
        (engine_() ^ (tag * 0xBF58476D1CE4E5B9ull)) + 0x94D049BB133111EBull;
    return Rng(mixed);
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Bernoulli trial with success probability p in [0, 1].
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Exponential variate with the given mean (= 1/rate). Requires mean > 0.
  double exponential_mean(double mean) {
    if (mean <= 0.0) throw std::invalid_argument("exponential mean must be > 0");
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Pareto variate with scale x_m > 0 and shape alpha > 0. Heavy-tailed ON
  /// durations in the churn model use this (PlanetLab session times are
  /// well described by a Pareto body).
  double pareto(double x_m, double alpha) {
    if (x_m <= 0.0 || alpha <= 0.0) {
      throw std::invalid_argument("pareto requires x_m > 0 and alpha > 0");
    }
    const double u = std::max(uniform(), 1e-300);
    return x_m / std::pow(u, 1.0 / alpha);
  }

  /// Normal variate. stddev may be 0 (a quiet measurement plane): the
  /// draw is mean + stddev * z with z ~ N(0, 1), the same arithmetic and
  /// the same engine draws as std::normal_distribution(mean, stddev),
  /// which itself requires stddev > 0.
  double normal(double mean, double stddev) {
    return mean + stddev * std::normal_distribution<double>()(engine_);
  }

  /// Log-normal variate parameterized by the underlying normal's mu/sigma.
  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// Fisher-Yates shuffle of a vector (any element type).
  template <typename T>
  void shuffle(std::vector<T>& items) {
    std::shuffle(items.begin(), items.end(), engine_);
  }

  /// Samples m distinct elements uniformly from `pool` (order randomized).
  /// Requires m <= pool.size().
  template <typename T>
  std::vector<T> sample_without_replacement(std::span<const T> pool,
                                            std::size_t m) {
    if (m > pool.size()) {
      throw std::invalid_argument("sample size exceeds pool size");
    }
    std::vector<T> scratch(pool.begin(), pool.end());
    // Partial Fisher-Yates: only the first m positions need to be drawn.
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t j = static_cast<std::size_t>(
          uniform_int(static_cast<std::int64_t>(i),
                      static_cast<std::int64_t>(scratch.size()) - 1));
      std::swap(scratch[i], scratch[j]);
    }
    scratch.resize(m);
    return scratch;
  }

  /// Picks one element uniformly at random. Requires a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> pool) {
    if (pool.empty()) throw std::invalid_argument("pick from empty pool");
    return pool[static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  }

  /// Access to the raw engine for use with std distributions.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace egoist::util
