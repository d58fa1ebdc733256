// Structure-of-arrays component storage for per-node overlay state.
//
// The per-node objects the network used to keep (one heap-allocated
// vector<NodeId> per node for wiring and donated links, a vector<bool> for
// membership) scatter an epoch's working set across the heap. NodeStore
// hoists them into flat component slabs — one contiguous array per
// component, fixed per-node capacity, a count array beside it — so a
// worker sweeping a node range touches consecutive cache lines and two
// workers can never write the same allocation.
//
// EpochStore holds the epoch-scoped planes of the parallel pipeline
// (overlay/epoch_engine.hpp): the measurement plane captured during the
// sequential snapshot phase (per-node pools with their measured values —
// a fresh sample in §5 scale mode, the online set in a dense epoch) and
// the proposal plane the evaluate phase writes (proposed wiring rows +
// adoption flags, one disjoint slot per node).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"

namespace egoist::overlay {

using graph::NodeId;

class NodeStore {
 public:
  NodeStore() = default;
  /// Capacities are hard per-node bounds (set_* throws beyond them): the
  /// wiring degree bound k (n - 1 for a full mesh) and the donated-link
  /// budget k2. All nodes start offline with empty rows.
  NodeStore(std::size_t nodes, std::size_t wiring_capacity,
            std::size_t donated_capacity);

  std::size_t size() const { return online_.size(); }
  std::size_t wiring_capacity() const { return wiring_cap_; }

  bool is_online(std::size_t node) const { return online_[node] != 0; }
  void set_online(std::size_t node, bool online) {
    online_[node] = online ? 1 : 0;
  }
  std::size_t online_count() const;
  std::vector<NodeId> online_nodes() const;  ///< ascending

  std::span<const NodeId> wiring(std::size_t node) const {
    return {wiring_.data() + node * wiring_cap_, wiring_count_[node]};
  }
  std::span<const NodeId> donated(std::size_t node) const {
    return {donated_.data() + node * donated_cap_, donated_count_[node]};
  }

  /// Copies (cheap: at most the capacity) for call sites that need an
  /// owning container — search seeds, hook payloads.
  std::vector<NodeId> wiring_vec(std::size_t node) const {
    const auto w = wiring(node);
    return {w.begin(), w.end()};
  }
  std::vector<NodeId> donated_vec(std::size_t node) const {
    const auto d = donated(node);
    return {d.begin(), d.end()};
  }

  void set_wiring(std::size_t node, std::span<const NodeId> links);
  void set_donated(std::size_t node, std::span<const NodeId> links);
  void clear_wiring(std::size_t node) { wiring_count_[node] = 0; }
  void clear_donated(std::size_t node) { donated_count_[node] = 0; }

 private:
  std::size_t wiring_cap_ = 0;
  std::size_t donated_cap_ = 0;
  std::vector<NodeId> wiring_;                ///< nodes x wiring_cap_
  std::vector<std::uint32_t> wiring_count_;
  std::vector<NodeId> donated_;               ///< nodes x donated_cap_
  std::vector<std::uint32_t> donated_count_;
  std::vector<std::uint8_t> online_;
};

class EpochStore {
 public:
  /// Starts an epoch: empty pools, empty proposals. The measurement plane
  /// is CSR-style per-node pools (ids + measured values, appended in
  /// ascending node order during the snapshot phase), so memory stays
  /// O(probed pairs).
  void begin(std::size_t nodes, std::size_t wiring_capacity);

  /// Appends node's pool (must be called in ascending node order; nodes
  /// without a call keep an empty pool). `values[i]` is the measured value
  /// of pool id `ids[i]`.
  void add_pool(std::size_t node, std::span<const NodeId> ids,
                std::span<const double> values);
  std::span<const NodeId> pool_ids(std::size_t node) const;
  std::span<const double> pool_values(std::size_t node) const;

  /// Proposal plane: one disjoint slot per node, safe for concurrent
  /// writers on distinct nodes.
  void set_proposal(std::size_t node, std::span<const NodeId> wiring,
                    bool adopt);
  std::span<const NodeId> proposal(std::size_t node) const {
    return {proposed_.data() + node * wiring_cap_, proposed_count_[node]};
  }
  bool adopted(std::size_t node) const { return adopt_[node] != 0; }

 private:
  std::size_t wiring_cap_ = 0;
  std::vector<std::size_t> pool_offset_;      ///< CSR append offsets
  std::vector<NodeId> pool_ids_;
  std::vector<double> pool_values_;
  std::vector<NodeId> proposed_;              ///< nodes x wiring_cap_
  std::vector<std::uint32_t> proposed_count_;
  std::vector<std::uint8_t> adopt_;
};

}  // namespace egoist::overlay
