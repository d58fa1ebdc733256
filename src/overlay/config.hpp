// Configuration types for an EGOIST overlay deployment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/policies.hpp"

namespace egoist::overlay {

/// Neighbor-selection policy (§3.2, §3.3).
enum class Policy {
  kBestResponse,  ///< BR: minimize local cost (the EGOIST default)
  kHybridBR,      ///< k2 donated backbone links + BR on the rest (§3.3)
  kRandom,        ///< k uniform random neighbors
  kClosest,       ///< k minimum-direct-cost neighbors
  kRegular,       ///< common offset vector around the id ring
  kFullMesh,      ///< connect to everyone (the RON-style upper bound)
};

/// Cost metric (§4.1).
enum class Metric {
  kDelayPing,    ///< one-way delay estimated via ping (active)
  kDelayCoords,  ///< one-way delay from Vivaldi coordinates (passive)
  kNodeLoad,     ///< per-node CPU load; path cost sums node loads
  kBandwidth,    ///< available bandwidth (bigger is better)
};

/// HybridBR backbone construction (§3.3).
enum class Backbone {
  kCycles,  ///< k2/2 bidirectional ring cycles (EGOIST's choice)
  kMst,     ///< minimum-spanning-tree mesh (Young et al. [43] style)
};

/// When a neighbor is detected dead (§3.3).
enum class RewireMode {
  kDelayed,    ///< repair at the next wiring epoch (EGOIST's default)
  kImmediate,  ///< re-evaluate as soon as the loss is detected
};

const char* to_string(Policy policy);
const char* to_string(Metric metric);
const char* to_string(Backbone backbone);

/// Parse the to_string names back into enums (scenario files / CLI flags).
/// Throw std::invalid_argument listing the accepted spellings.
Policy parse_policy(const std::string& name);
Metric parse_metric(const std::string& name);
Backbone parse_backbone(const std::string& name);

struct OverlayConfig {
  std::size_t k = 5;                  ///< neighbor budget per node
  Policy policy = Policy::kBestResponse;
  Metric metric = Metric::kDelayPing;

  /// BR(eps): re-wire only when the new wiring improves the local cost by
  /// more than this fraction (0 = plain BR; paper evaluates 0.1).
  double epsilon = 0.0;

  /// HybridBR: number of donated backbone links k2 (must be even, < k).
  std::size_t donated_links = 2;

  /// HybridBR: how the donated links form a connectivity backbone.
  Backbone backbone = Backbone::kCycles;

  /// Reaction to a neighbor's departure (immediate mode models aggressive
  /// link monitoring on *all* links, not just donated ones).
  RewireMode rewire_mode = RewireMode::kDelayed;

  /// Audits (§3.4): before using an announced link cost, cross-check it
  /// against the virtual-coordinate estimate; announcements well above the
  /// estimate are discarded and replaced by the estimate, neutering
  /// cost-inflation cheaters. Delay metrics only.
  bool enable_audits = false;

  /// Free riders: nodes that announce link costs inflated by cheat_factor
  /// (> 1; the paper's experiment uses 2x). Only they lie; their own
  /// decisions use truthful local measurements.
  std::vector<int> cheaters;
  double cheat_factor = 2.0;

  /// Worker threads for the wiring epoch itself (BR/HybridBR only; the
  /// other policies are trivial and ignore this). 0 (the default) keeps the
  /// paper's unsynchronized sequential epoch: nodes evaluate in a shuffled order and each
  /// sees the re-wirings of the nodes before it — byte-identical to the
  /// historical trajectories. >= 1 switches run_epoch to the snapshot ->
  /// parallel evaluate -> deterministic merge pipeline
  /// (overlay/epoch_engine.hpp): every node best-responds to the immutable
  /// epoch-boundary state and adopted re-wirings merge in ascending node
  /// order, so the trajectory is bit-identical at ANY worker count — 1 vs N
  /// only changes wall-clock time. Negative values throw.
  int epoch_workers = 0;

  /// §5 scale mode: when > 0, BR/HybridBR nodes evaluate a per-node random
  /// sample of this many candidates (plus their current and donated links)
  /// against `br_landmarks` epoch-shared landmark destinations instead of
  /// running the full-residual objective over all n-1 nodes. Measurement
  /// cost per node drops from O(n) pings to O(sample), and no O(n^2)
  /// residual state is ever materialized — the regime the scale_frontier
  /// experiment sweeps. 0 (the default) is the exact dense path,
  /// bit-identical to the pre-scale-mode code. BR/HybridBR only; requires
  /// uniform preferences (zipf 0) and audits off.
  std::size_t br_sample = 0;

  /// Scale mode: number of epoch-shared landmark destinations the sampled
  /// objective scores against (ignored when br_sample == 0).
  std::size_t br_landmarks = 64;

  /// Routing-preference skew (footnote 8): each node weights destinations
  /// by a Zipf law with this exponent over a node-specific random ranking
  /// (0 = uniform preference, the paper's conservative default). BR
  /// leverages skew — it spends links on the destinations a node actually
  /// talks to — while the heuristics cannot.
  double preference_zipf_exponent = 0.0;

  /// Incremental dirty-set epochs (BR/HybridBR only; requires audits off).
  /// When on, run_epoch — sequential and pipeline alike — evaluates only
  /// nodes whose last best response may have been invalidated (a
  /// neighbor's significant re-announce, a candidate-set churn event,
  /// measurement drift past drift_threshold, or a path-engine row their
  /// base tree lost to an accepted proposal), skipping the rest entirely:
  /// no measurement, no announcement refresh, no BR search. The first
  /// epoch and any structural reset seed the full set. Off (the default)
  /// keeps every figure output byte-identical to the full recompute.
  bool incremental = false;

  /// Relative per-link drift tolerance for incremental mode. 0 (the
  /// default) is exact mode: marking is conservative — any announce delta
  /// or membership change dirties every node — which makes the incremental
  /// trajectory bit-identical to the full recompute. > 0 is tolerance
  /// mode: only deltas beyond this fraction mark, and clean nodes are
  /// drift-probed against the link baseline captured at their last
  /// evaluation; scores then stay within a (tested) tolerance band rather
  /// than being bit-exact. Negative values throw.
  double drift_threshold = 0.0;

  std::uint64_t seed = 1;  ///< policy randomness (k-Random draws, tie noise)
};

}  // namespace egoist::overlay
