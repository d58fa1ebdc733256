// Structure-of-arrays component storage for per-node overlay state.
//
// The per-node objects the network used to keep (one heap-allocated
// vector<NodeId> per node for wiring and donated links, a vector<bool> for
// membership) scatter an epoch's working set across the heap. NodeStore
// hoists them into flat component slabs — one contiguous array per
// component, fixed per-node capacity, a count array beside it — so a
// worker sweeping a node range touches consecutive cache lines and two
// workers can never write the same allocation. Two indexes ride along,
// updated by every write: the ascending online-id array (sampling and
// bootstrap picks draw from it by rank) and the in-link index (who wires
// or donates to a node: holder marking and immediate repair). With them a
// scale-mode turn costs O(sample + in-degree), not O(n).
//
// EpochStore holds the epoch-scoped planes of the §5 scale-mode snapshot
// -> evaluate -> merge epoch (EgoistNetwork::run_epoch,
// overlay/epoch_engine.hpp), one slot per evaluation in evaluation order:
// the measurement plane the snapshot fills (each slot's node, sampled pool
// and measured values) and the proposal plane the evaluate step writes
// (proposed wiring row + adoption flags, one disjoint slot each).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "util/rng.hpp"

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
  std::size_t donated_capacity() const { return donated_cap_; }

  bool is_online(std::size_t node) const { return online_[node] != 0; }
  /// Also keeps the ascending online-id array in step (a sorted insert or
  /// erase when the state changes).
  void set_online(std::size_t node, bool online);
  std::size_t online_count() const { return online_ids_.size(); }
  /// The online ids, ascending; a view invalidated by the next
  /// set_online.
  std::span<const NodeId> online_ids() const { return online_ids_; }

  /// Draws min(m, eligible) distinct nodes uniformly from the online nodes
  /// not in `excluded`, in draw order: the same RNG draws and the same
  /// nodes as rng.sample_without_replacement over the ascending list of
  /// eligible nodes, without building that list. The ranks of
  /// rng.sample_ranks are mapped through the online array, stepping over
  /// the excluded positions, so a draw costs O(m + |excluded| log n).
  /// Offline and repeated entries of `excluded` are ignored.
  std::vector<NodeId> sample_online(util::Rng& rng,
                                    std::span<const NodeId> excluded,
                                    std::size_t m) const;

  std::span<const NodeId> wiring(std::size_t node) const {
    return {links_.data() + wiring_slot(node), wiring_count_[node]};
  }
  std::span<const NodeId> donated(std::size_t node) const {
    return {links_.data() + donated_slot(node), donated_count_[node]};
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

  /// Row writes keep the in-link index in step. `links` must not view the
  /// store's own rows.
  void set_wiring(std::size_t node, std::span<const NodeId> links);
  void set_donated(std::size_t node, std::span<const NodeId> links);
  void clear_wiring(std::size_t node) { set_wiring(node, {}); }
  void clear_donated(std::size_t node) { set_donated(node, {}); }

  /// Replaces `out` with the holders of `node`: the online nodes other
  /// than `node` whose wiring row (or, unless `wiring_only`, donated row)
  /// holds it, ascending and deduplicated. Reads the in-link index, so it
  /// costs O(in-degree), not a scan of every row.
  void collect_holders(std::size_t node, std::vector<NodeId>& out,
                       bool wiring_only = false) const;

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  std::size_t wiring_slot(std::size_t node) const { return node * wiring_cap_; }
  std::size_t donated_slot(std::size_t node) const {
    return size() * wiring_cap_ + node * donated_cap_;
  }
  /// The node whose row owns `slot`.
  std::size_t owner(std::size_t slot) const;
  void set_row(std::size_t first, std::uint32_t& count,
               std::span<const NodeId> links);
  void link(std::size_t slot);
  void unlink(std::size_t slot);

  std::size_t wiring_cap_ = 0;
  std::size_t donated_cap_ = 0;
  /// One slab of row slots: nodes x wiring_cap_ wiring slots, then
  /// nodes x donated_cap_ donated slots.
  std::vector<NodeId> links_;
  std::vector<std::uint32_t> wiring_count_;
  std::vector<std::uint32_t> donated_count_;
  /// The in-link index, intrusive in the slots: every filled slot sits in
  /// a doubly linked list headed at its target, in_head_[target] ->
  /// in_next_[slot] -> ... -> kNoSlot, so a row write relinks O(capacity)
  /// slots and a holder query walks O(in-degree) of them.
  std::vector<std::uint32_t> in_head_;
  std::vector<std::uint32_t> in_next_;
  std::vector<std::uint32_t> in_prev_;
  std::vector<std::uint8_t> online_;
  std::vector<NodeId> online_ids_;  ///< ascending
};

class EpochStore {
 public:
  /// Starts an epoch with no slots. `wiring_capacity` bounds a proposal;
  /// `slots` and `entries` (pool entries over all slots) size one
  /// reservation, past which the planes grow by doubling. Memory stays
  /// O(probed pairs).
  void begin(std::size_t wiring_capacity, std::size_t slots,
             std::size_t entries);

  /// Appends the next slot, in any node order: `node`'s pool, where
  /// `values[i]` is the measured value of `ids[i]`, and an empty proposal.
  /// Returns the slot.
  std::size_t add_pool(NodeId node, std::span<const NodeId> ids,
                       std::span<const double> values);
  std::size_t slots() const { return node_.size(); }
  NodeId node(std::size_t slot) const { return node_[slot]; }
  std::span<const NodeId> pool_ids(std::size_t slot) const {
    return {pool_ids_.data() + pool_offset_[slot],
            pool_offset_[slot + 1] - pool_offset_[slot]};
  }
  std::span<const double> pool_values(std::size_t slot) const {
    return {pool_values_.data() + pool_offset_[slot],
            pool_offset_[slot + 1] - pool_offset_[slot]};
  }

  /// Proposal plane: safe for concurrent writers on distinct slots once
  /// every slot is added. `search_skipped`: a bound proved that no search
  /// could re-wire the node, so none ran.
  void set_proposal(std::size_t slot, std::span<const NodeId> wiring,
                    bool adopt, bool search_skipped);
  std::span<const NodeId> proposal(std::size_t slot) const {
    return {proposed_.data() + slot * wiring_cap_, proposed_count_[slot]};
  }
  bool adopted(std::size_t slot) const { return (flags_[slot] & kAdopt) != 0; }
  bool search_skipped(std::size_t slot) const {
    return (flags_[slot] & kSearchSkipped) != 0;
  }

 private:
  std::size_t wiring_cap_ = 0;
  std::vector<NodeId> node_;                  ///< slot -> node
  std::vector<std::size_t> pool_offset_;      ///< CSR offsets, slots + 1
  std::vector<NodeId> pool_ids_;
  std::vector<double> pool_values_;
  std::vector<NodeId> proposed_;              ///< slots x wiring_cap_
  std::vector<std::uint32_t> proposed_count_;
  static constexpr std::uint8_t kAdopt = 1;
  static constexpr std::uint8_t kSearchSkipped = 2;
  std::vector<std::uint8_t> flags_;
};

}  // namespace egoist::overlay
