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

  /// Ranks of a uniform m-subset of [0, n), in draw order: the first m
  /// slots of a partial Fisher-Yates shuffle of the identity array
  /// 0 .. n-1, drawing uniform_int(i, n - 1) for i = 0 .. m-1. Only the
  /// slots a swap displaced are stored (at most m, in an open-addressed
  /// table), so a draw costs O(m) however large n is. Requires m <= n.
  std::vector<std::size_t> sample_ranks(std::size_t n, std::size_t m) {
    if (m > n) throw std::invalid_argument("sample size exceeds pool size");
    std::vector<std::size_t> ranks;
    if (m == 0) return ranks;
    ranks.reserve(m);
    // Displaced slot -> the value it holds; a slot absent from the table
    // still holds its own index. At least 2m cells keep the load <= 1/2.
    int bits = 1;
    while ((std::size_t{1} << bits) < 2 * m) ++bits;
    const std::size_t mask = (std::size_t{1} << bits) - 1;
    constexpr std::size_t kEmpty = ~std::size_t{0};
    std::vector<std::size_t> slots(mask + 1, kEmpty);
    std::vector<std::size_t> held(mask + 1);
    const auto cell = [&](std::size_t slot) {
      auto c = static_cast<std::size_t>(
          (static_cast<std::uint64_t>(slot) * 0x9E3779B97F4A7C15ull) >>
          (64 - bits));
      while (slots[c] != kEmpty && slots[c] != slot) c = (c + 1) & mask;
      return c;
    };
    for (std::size_t i = 0; i < m; ++i) {
      const auto j = static_cast<std::size_t>(uniform_int(
          static_cast<std::int64_t>(i), static_cast<std::int64_t>(n) - 1));
      const std::size_t ci = cell(i);
      const std::size_t at_i = slots[ci] == i ? held[ci] : i;
      const std::size_t cj = cell(j);
      ranks.push_back(slots[cj] == j ? held[cj] : j);
      // The swap: slot i is never read again (later draws start past
      // it), so only slot j needs a record of its new value.
      slots[cj] = j;
      held[cj] = at_i;
    }
    return ranks;
  }

  /// Samples m distinct elements uniformly from `pool` (order randomized):
  /// pool[r] for each rank r of sample_ranks(pool.size(), m). Requires
  /// m <= pool.size().
  template <typename T>
  std::vector<T> sample_without_replacement(std::span<const T> pool,
                                            std::size_t m) {
    const auto ranks = sample_ranks(pool.size(), m);
    std::vector<T> sample;
    sample.reserve(ranks.size());
    for (std::size_t r : ranks) sample.push_back(pool[r]);
    return sample;
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
