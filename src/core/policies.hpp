// Neighbor-selection policies (§3.2) and Best-Response search (§2.1, §4.1).
//
// - k-Random:  k uniform random candidates.
// - k-Closest: the k candidates with minimum direct link cost.
// - k-Regular: offsets o_j = 1 + (j-1)(n-1)/(k+1) around the id ring.
// - BR:        minimize the local objective. Exact BR is NP-hard (asymmetric
//              k-median for delay; MAX-UNIQUES reduction for bandwidth), so
//              the default is greedy construction + (drop-one, add-one) swap
//              local search, with exhaustive search below a budget — the
//              "fast approximate versions based on local search" the paper
//              deploys, which it verified within 5% of optimal.
//
// HybridBR's donated connectivity links and BR(eps) re-wiring thresholds
// are composed on top of these primitives by the overlay layer.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/objective.hpp"
#include "util/rng.hpp"

namespace egoist::core {

/// Reusable buffers for best_response(): the search caches a
/// candidates x targets link-value matrix per call, and the epoch loop
/// calls it once per node — pointing every call at one scratch object
/// removes the only O(n^2) allocation left on the hot path.
struct BestResponseScratch {
  std::vector<double> link_values;
};

/// Tuning for best_response().
struct BestResponseOptions {
  /// Run exhaustive search when C(|candidates|, k) is at most this;
  /// otherwise greedy + swaps. 0 disables exact search entirely.
  std::uint64_t exact_budget = 20'000;

  /// Links the node is committed to regardless of the search (HybridBR's
  /// donated links): they participate in every cost evaluation but do not
  /// count against k.
  std::vector<NodeId> fixed_links;

  /// Warm start for the local search: the node's current wiring. Entries
  /// not in the candidate pool (departed nodes, now-fixed links) are
  /// dropped; remaining slots are filled greedily. Seeding from the current
  /// wiring makes the search sticky — it only moves when a swap strictly
  /// improves — which is how the deployed system avoids flip-flopping on
  /// measurement noise. Ignored by the exhaustive path.
  std::vector<NodeId> seed_wiring;

  /// Optional reusable buffers (see BestResponseScratch); must outlive the
  /// best_response() call. nullptr = allocate per call.
  BestResponseScratch* scratch = nullptr;
};

/// Result of a best-response computation.
struct BestResponseResult {
  std::vector<NodeId> wiring;  ///< chosen free links, ascending (size <= k)
  double cost = 0.0;           ///< objective cost of wiring + fixed links
  bool exact = false;          ///< true when found by exhaustive search
  std::uint64_t evaluations = 0;  ///< objective evaluations performed
};

/// Selects k uniform-random candidates (all candidates when fewer than k).
std::vector<NodeId> select_k_random(const std::vector<NodeId>& candidates,
                                    std::size_t k, util::Rng& rng);

/// Selects the k candidates with minimum direct cost. `direct_cost` is
/// indexed by node id. Ties break toward lower id for determinism.
std::vector<NodeId> select_k_closest(const std::vector<NodeId>& candidates,
                                     const std::vector<double>& direct_cost,
                                     std::size_t k);

/// As select_k_closest but for "bigger is better" metrics (bandwidth).
std::vector<NodeId> select_k_widest(const std::vector<NodeId>& candidates,
                                    const std::vector<double>& direct_value,
                                    std::size_t k);

/// k-Regular offsets for a ring of n ids: o_j = 1 + (j-1)(n-1)/(k+1)
/// (rounded; deduplicated; the paper assumes (n-1) % (k+1) == 0).
std::vector<int> k_regular_offsets(std::size_t n, std::size_t k);

/// k-Regular wiring of node `self` in a ring of `n` ids.
std::vector<NodeId> select_k_regular(NodeId self, std::size_t n, std::size_t k);

/// Best response: choose up to k free links from objective.candidates()
/// minimizing objective.cost(free + fixed).
BestResponseResult best_response(const WiringObjective& objective, std::size_t k,
                                 const BestResponseOptions& options = {});

}  // namespace egoist::core
