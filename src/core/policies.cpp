#include "core/policies.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "graph/shortest_path.hpp"

namespace egoist::core {

namespace {

/// C(n, k) saturating at limit+1 to avoid overflow.
std::uint64_t binomial_capped(std::uint64_t n, std::uint64_t k,
                              std::uint64_t limit) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  std::uint64_t result = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    const std::uint64_t numerator = n - k + i;
    if (result > (limit + 1) / numerator * i) return limit + 1;
    result = result * numerator / i;
    if (result > limit) return limit + 1;
  }
  return result;
}

/// Incremental evaluator: caches link_value(v, j) for the candidate pool
/// and tracks, per target, the best and second-best contribution among the
/// currently chosen slots (plus fixed links folded into a baseline), so a
/// candidate add/swap evaluates in O(|targets|).
class Evaluator {
 public:
  Evaluator(const WiringObjective& obj, const std::vector<NodeId>& pool,
            const std::vector<NodeId>& fixed, BestResponseScratch* scratch)
      : obj_(obj),
        pool_(pool),
        maximize_(obj.maximize_link_value()),
        fold_penalty_(obj.fold_penalty()),
        value_storage_(scratch != nullptr ? scratch->link_values
                                          : owned_values_) {
    for (NodeId j : obj.targets()) {
      if (j == obj.self()) continue;
      targets_.push_back(j);
      weights_.push_back(obj.target_weight(j));
    }
    const std::size_t t = targets_.size();
    value_storage_.resize(pool_.size() * t);
    value_ = value_storage_.data();
    // Candidate rows of the link-value cache fill lazily on first touch
    // (see row()): candidates never scanned — e.g. pruned pools — are
    // never materialized, and the fill streams once instead of an eager
    // n^2 pass up front.
    row_filled_.assign(pool_.size(), 0);
    fixed_best_.assign(t, obj.no_link_value());
    for (NodeId v : fixed) {
      for (std::size_t ti = 0; ti < t; ++ti) {
        fixed_best_[ti] = combine(fixed_best_[ti], obj_.link_value(v, targets_[ti]));
      }
    }
    best1_ = fixed_best_;
    best1_slot_.assign(t, kFixedSlot);
    best2_ = fixed_best_;
    add_cost_.assign(pool_.size(), 0.0);
    add_stamp_.assign(pool_.size(), 0);
    owned_off_.assign(1, 0);
  }

  static constexpr int kFixedSlot = -1;

  double combine(double a, double b) const {
    return maximize_ ? std::max(a, b) : std::min(a, b);
  }

  /// Inline fold for the hot loops: the canonical shape every objective's
  /// virtual fold() is documented to match (see fold_penalty()). Saves a
  /// virtual call per target per candidate evaluation.
  double fold(double best) const {
    if (maximize_) return -best;
    return best == graph::kUnreachable ? fold_penalty_ : best;
  }

  /// The per-target sums below run in deterministic 4-lane form: a single
  /// ordered accumulator is a loop-carried FP dependency (~4 cycles per
  /// target) and dominates the whole search at large n. Four independent
  /// lanes folded as (a0+a1)+(a2+a3) keep results deterministic (same
  /// order every call, used identically by all three cost functions) while
  /// quadrupling throughput; they may round differently from the naive
  /// left-to-right sum, which only perturbs exact ties in the local
  /// search.
  template <typename PerTarget>
  double lane_sum(std::size_t t, PerTarget term) const {
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    std::size_t ti = 0;
    for (; ti + 4 <= t; ti += 4) {
      a0 += term(ti);
      a1 += term(ti + 1);
      a2 += term(ti + 2);
      a3 += term(ti + 3);
    }
    for (; ti < t; ++ti) a0 += term(ti);
    return (a0 + a1) + (a2 + a3);
  }

  /// Cost of the current wiring.
  double current_cost() const {
    return lane_sum(targets_.size(), [this](std::size_t ti) {
      return weights_[ti] * fold(best1_[ti]);
    });
  }

  /// Link values of pool candidate `c` against every target, filled on
  /// first use (one virtual bulk call per candidate row; the concrete
  /// objectives stream it from flat arrays).
  const double* row(std::size_t c) {
    const std::size_t t = targets_.size();
    double* value = value_ + c * t;
    if (!row_filled_[c]) {
      obj_.fill_link_values({&pool_[c], 1}, targets_, {value, t});
      row_filled_[c] = 1;
    }
    return value;
  }

  /// Cost if pool candidate `c` were added to the current wiring.
  double cost_with_added(std::size_t c) {
    const std::size_t t = targets_.size();
    const double* value = row(c);
    return lane_sum(t, [this, value](std::size_t ti) {
      return weights_[ti] * fold(combine(best1_[ti], value[ti]));
    });
  }

  /// Cost if slot `slot` were replaced by pool candidate `c`, decomposed
  /// as cost_with_added(c) plus a correction over the targets whose best
  /// link `slot` currently provides (the only targets where the two
  /// differ). With the add-cost memoized per candidate for the duration of
  /// a wiring state (see swap passes below), a full swap scan costs
  /// ~2·|targets| per candidate instead of k·|targets|.
  double cost_with_swap(int slot, std::size_t c) {
    const double* value = row(c);
    if (add_stamp_[c] != wiring_stamp_) {
      add_cost_[c] = cost_with_added(c);
      add_stamp_[c] = wiring_stamp_;
    }
    const std::size_t begin = owned_off_[static_cast<std::size_t>(slot)];
    const std::size_t end = owned_off_[static_cast<std::size_t>(slot) + 1];
    const double correction =
        lane_sum(end - begin, [this, value, begin](std::size_t i) {
          const std::size_t ti = owned_[begin + i];
          return weights_[ti] * (fold(combine(best2_[ti], value[ti])) -
                                 fold(combine(best1_[ti], value[ti])));
        });
    return add_cost_[c] + correction;
  }

  /// Rebuilds the per-target best/second-best from the chosen `slots`.
  /// The fixed-link baseline participates as an unremovable pseudo-slot, so
  /// best2 (the value after removing best1's slot) is always well defined.
  void rebuild(const std::vector<std::size_t>& slots) {
    const std::size_t t = targets_.size();
    for (const std::size_t s : slots) row(s);  // materialize chosen rows
    auto strictly_better = [this](double a, double b) {
      return maximize_ ? a > b : a < b;
    };
    for (std::size_t ti = 0; ti < t; ++ti) {
      double b1 = fixed_best_[ti];
      int s1 = kFixedSlot;
      double b2 = fixed_best_[ti];
      for (std::size_t s = 0; s < slots.size(); ++s) {
        const double v = value_[slots[s] * t + ti];
        if (strictly_better(v, b1)) {
          b2 = b1;
          b1 = v;
          s1 = static_cast<int>(s);
        } else if (strictly_better(v, b2) || (v == b1 && s1 != static_cast<int>(s))) {
          // Ties with best1 from another slot survive best1's removal.
          b2 = v;
        }
      }
      best1_[ti] = b1;
      best1_slot_[ti] = s1;
      best2_[ti] = b2;
    }
    // The wiring changed: invalidate the add-cost memo and re-bin each
    // target under the slot that provides its best link (fixed-owned
    // targets belong to no slot; swapping never changes their term).
    ++wiring_stamp_;
    owned_off_.assign(slots.size() + 1, 0);
    for (std::size_t ti = 0; ti < t; ++ti) {
      if (best1_slot_[ti] >= 0) {
        ++owned_off_[static_cast<std::size_t>(best1_slot_[ti]) + 1];
      }
    }
    for (std::size_t s = 0; s < slots.size(); ++s) {
      owned_off_[s + 1] += owned_off_[s];
    }
    owned_.resize(owned_off_.back());
    owned_cursor_.assign(owned_off_.begin(), owned_off_.end() - 1);
    for (std::size_t ti = 0; ti < t; ++ti) {
      if (best1_slot_[ti] >= 0) {
        owned_[owned_cursor_[static_cast<std::size_t>(best1_slot_[ti])]++] = ti;
      }
    }
  }

 private:
  const WiringObjective& obj_;
  const std::vector<NodeId>& pool_;
  bool maximize_;
  double fold_penalty_;
  std::vector<NodeId> targets_;
  std::vector<double> weights_;
  std::vector<double> owned_values_;     ///< backing when no scratch given
  std::vector<double>& value_storage_;
  double* value_ = nullptr;              ///< value_[c * T + ti]
  std::vector<std::uint8_t> row_filled_;
  std::vector<double> fixed_best_;  ///< per-target best over fixed links
  std::vector<double> best1_;
  std::vector<int> best1_slot_;     ///< slot providing best1 (kFixedSlot = fixed)
  std::vector<double> best2_;       ///< best when best1's slot is removed

  std::uint32_t wiring_stamp_ = 0;        ///< bumped by rebuild()
  std::vector<double> add_cost_;          ///< memo: cost_with_added per candidate
  std::vector<std::uint32_t> add_stamp_;  ///< memo validity stamp
  std::vector<std::size_t> owned_;        ///< target indices binned by slot
  std::vector<std::size_t> owned_off_;    ///< per-slot offsets into owned_
  std::vector<std::size_t> owned_cursor_;
};

}  // namespace

std::vector<NodeId> select_k_random(const std::vector<NodeId>& candidates,
                                    std::size_t k, util::Rng& rng) {
  const std::size_t take = std::min(k, candidates.size());
  auto picked = rng.sample_without_replacement(
      std::span<const NodeId>(candidates), take);
  std::sort(picked.begin(), picked.end());
  return picked;
}

std::vector<NodeId> select_k_closest(const std::vector<NodeId>& candidates,
                                     const std::vector<double>& direct_cost,
                                     std::size_t k) {
  std::vector<NodeId> sorted = candidates;
  for (NodeId v : sorted) {
    if (v < 0 || static_cast<std::size_t>(v) >= direct_cost.size()) {
      throw std::out_of_range("candidate outside direct_cost");
    }
  }
  std::sort(sorted.begin(), sorted.end(), [&](NodeId a, NodeId b) {
    const double ca = direct_cost[static_cast<std::size_t>(a)];
    const double cb = direct_cost[static_cast<std::size_t>(b)];
    if (ca != cb) return ca < cb;
    return a < b;
  });
  sorted.resize(std::min(k, sorted.size()));
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

std::vector<NodeId> select_k_widest(const std::vector<NodeId>& candidates,
                                    const std::vector<double>& direct_value,
                                    std::size_t k) {
  std::vector<double> negated(direct_value.size());
  for (std::size_t i = 0; i < direct_value.size(); ++i) {
    negated[i] = -direct_value[i];
  }
  return select_k_closest(candidates, negated, k);
}

std::vector<int> k_regular_offsets(std::size_t n, std::size_t k) {
  if (n < 2) throw std::invalid_argument("need n >= 2");
  if (k == 0 || k >= n) throw std::invalid_argument("need 0 < k < n");
  std::vector<int> offsets;
  offsets.reserve(k);
  const double stride =
      static_cast<double>(n - 1) / static_cast<double>(k + 1);
  for (std::size_t j = 1; j <= k; ++j) {
    int o = 1 + static_cast<int>(std::llround(static_cast<double>(j - 1) * stride));
    o = std::min(o, static_cast<int>(n) - 1);
    // Rounding on small rings can collide; nudge forward to keep offsets
    // distinct (they must map to k distinct neighbors).
    while (std::find(offsets.begin(), offsets.end(), o) != offsets.end() &&
           o < static_cast<int>(n) - 1) {
      ++o;
    }
    if (std::find(offsets.begin(), offsets.end(), o) == offsets.end()) {
      offsets.push_back(o);
    }
  }
  return offsets;
}

std::vector<NodeId> select_k_regular(NodeId self, std::size_t n, std::size_t k) {
  if (self < 0 || static_cast<std::size_t>(self) >= n) {
    throw std::out_of_range("self out of range");
  }
  const auto offsets = k_regular_offsets(n, k);
  std::vector<NodeId> wiring;
  wiring.reserve(offsets.size());
  for (int o : offsets) {
    wiring.push_back(static_cast<NodeId>(
        (static_cast<std::size_t>(self) + static_cast<std::size_t>(o)) % n));
  }
  std::sort(wiring.begin(), wiring.end());
  wiring.erase(std::unique(wiring.begin(), wiring.end()), wiring.end());
  return wiring;
}

BestResponseResult best_response(const WiringObjective& objective, std::size_t k,
                                 const BestResponseOptions& options) {
  const std::vector<NodeId>& candidates = objective.candidates();
  BestResponseResult result;

  // Fixed links may not also be picked as free links.
  std::vector<NodeId> pool;
  pool.reserve(candidates.size());
  for (NodeId v : candidates) {
    if (std::find(options.fixed_links.begin(), options.fixed_links.end(), v) ==
        options.fixed_links.end()) {
      pool.push_back(v);
    }
  }
  const std::size_t take = std::min(k, pool.size());

  auto full_wiring = [&](const std::vector<NodeId>& free_links) {
    std::vector<NodeId> all = options.fixed_links;
    all.insert(all.end(), free_links.begin(), free_links.end());
    return all;
  };

  if (take == 0) {
    result.wiring = {};
    result.cost = objective.cost(full_wiring({}));
    result.exact = true;
    result.evaluations = 1;
    return result;
  }

  // Exhaustive search when affordable.
  if (options.exact_budget > 0 &&
      binomial_capped(pool.size(), take, options.exact_budget) <=
          options.exact_budget) {
    std::vector<std::size_t> idx(take);
    for (std::size_t i = 0; i < take; ++i) idx[i] = i;
    std::vector<NodeId> current(take);
    double best_cost = std::numeric_limits<double>::infinity();
    std::vector<NodeId> best;
    while (true) {
      for (std::size_t i = 0; i < take; ++i) current[i] = pool[idx[i]];
      const double c = objective.cost(full_wiring(current));
      ++result.evaluations;
      if (c < best_cost) {
        best_cost = c;
        best = current;
      }
      // Advance the combination (standard odometer).
      int pos = static_cast<int>(take) - 1;
      while (pos >= 0 &&
             idx[static_cast<std::size_t>(pos)] ==
                 static_cast<std::size_t>(pos) + pool.size() - take) {
        --pos;
      }
      if (pos < 0) break;
      ++idx[static_cast<std::size_t>(pos)];
      for (std::size_t i = static_cast<std::size_t>(pos) + 1; i < take; ++i) {
        idx[i] = idx[i - 1] + 1;
      }
    }
    std::sort(best.begin(), best.end());
    result.wiring = std::move(best);
    result.cost = best_cost;
    result.exact = true;
    return result;
  }

  // Greedy construction + swap local search over the cached evaluator.
  Evaluator eval(objective, pool, options.fixed_links, options.scratch);
  std::vector<std::size_t> slots;  // indices into pool
  std::vector<bool> used(pool.size(), false);

  // Warm start from the seed wiring (current links still in the pool).
  for (NodeId v : options.seed_wiring) {
    if (slots.size() >= take) break;
    const auto it = std::find(pool.begin(), pool.end(), v);
    if (it == pool.end()) continue;
    const auto c = static_cast<std::size_t>(it - pool.begin());
    if (used[c]) continue;
    used[c] = true;
    slots.push_back(c);
  }
  if (!slots.empty()) eval.rebuild(slots);

  for (std::size_t round = slots.size(); round < take; ++round) {
    double best_cost = std::numeric_limits<double>::infinity();
    std::size_t best_idx = pool.size();
    for (std::size_t c = 0; c < pool.size(); ++c) {
      if (used[c]) continue;
      const double cost = eval.cost_with_added(c);
      ++result.evaluations;
      if (cost < best_cost) {
        best_cost = cost;
        best_idx = c;
      }
    }
    if (best_idx == pool.size()) break;
    used[best_idx] = true;
    slots.push_back(best_idx);
    eval.rebuild(slots);
  }
  double current_cost = eval.current_cost();

  // Swap passes stop at the first pass without an improving swap; this
  // cap bounds a search that keeps finding ever-smaller improvements.
  constexpr int kMaxSwapPasses = 8;
  for (int pass = 0; pass < kMaxSwapPasses; ++pass) {
    bool improved = false;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      for (std::size_t c = 0; c < pool.size(); ++c) {
        if (used[c]) continue;
        const double cost = eval.cost_with_swap(static_cast<int>(s), c);
        ++result.evaluations;
        if (cost + 1e-12 < current_cost) {
          used[slots[s]] = false;
          used[c] = true;
          slots[s] = c;
          eval.rebuild(slots);
          current_cost = eval.current_cost();
          improved = true;
          break;  // re-scan this slot's new link on the next pass
        }
      }
    }
    if (!improved) break;
  }

  std::vector<NodeId> wiring;
  wiring.reserve(slots.size());
  for (std::size_t s : slots) wiring.push_back(pool[s]);
  std::sort(wiring.begin(), wiring.end());
  result.wiring = std::move(wiring);
  result.cost = objective.cost(full_wiring(result.wiring));
  result.exact = false;
  return result;
}

}  // namespace egoist::core
