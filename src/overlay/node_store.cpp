#include "overlay/node_store.hpp"

#include <algorithm>
#include <stdexcept>

namespace egoist::overlay {

NodeStore::NodeStore(std::size_t nodes, std::size_t wiring_capacity,
                     std::size_t donated_capacity)
    : wiring_cap_(wiring_capacity),
      donated_cap_(donated_capacity),
      links_(nodes * (wiring_capacity + donated_capacity), NodeId{-1}),
      wiring_count_(nodes, 0),
      donated_count_(nodes, 0),
      in_head_(nodes, kNoSlot),
      in_next_(links_.size(), kNoSlot),
      in_prev_(links_.size(), kNoSlot),
      online_(nodes, 0) {
  if (links_.size() >= kNoSlot) {
    throw std::length_error("node store exceeds 32-bit slot ids");
  }
}

void NodeStore::set_online(std::size_t node, bool online) {
  if (is_online(node) == online) return;
  online_[node] = online ? 1 : 0;
  const auto id = static_cast<NodeId>(node);
  const auto it = std::lower_bound(online_ids_.begin(), online_ids_.end(), id);
  if (online) {
    online_ids_.insert(it, id);
  } else {
    online_ids_.erase(it);
  }
}

std::vector<NodeId> NodeStore::sample_online(util::Rng& rng,
                                             std::span<const NodeId> excluded,
                                             std::size_t m) const {
  // Positions of the excluded online nodes in the online array, ascending.
  std::vector<std::size_t> skip;
  skip.reserve(excluded.size());
  for (NodeId v : excluded) {
    if (v < 0 || static_cast<std::size_t>(v) >= size() ||
        !is_online(static_cast<std::size_t>(v))) {
      continue;
    }
    skip.push_back(static_cast<std::size_t>(
        std::lower_bound(online_ids_.begin(), online_ids_.end(), v) -
        online_ids_.begin()));
  }
  std::sort(skip.begin(), skip.end());
  skip.erase(std::unique(skip.begin(), skip.end()), skip.end());

  const std::size_t eligible = online_ids_.size() - skip.size();
  std::vector<NodeId> sample;
  for (std::size_t rank : rng.sample_ranks(eligible, std::min(m, eligible))) {
    // The rank-th eligible position: every skipped position at or before
    // it pushes it one further.
    std::size_t pos = rank;
    for (std::size_t s : skip) {
      if (s > pos) break;
      ++pos;
    }
    sample.push_back(online_ids_[pos]);
  }
  return sample;
}

void NodeStore::set_wiring(std::size_t node, std::span<const NodeId> links) {
  if (links.size() > wiring_cap_) {
    throw std::length_error("wiring exceeds store capacity");
  }
  set_row(wiring_slot(node), wiring_count_[node], links);
}

void NodeStore::set_donated(std::size_t node, std::span<const NodeId> links) {
  if (links.size() > donated_cap_) {
    throw std::length_error("donated links exceed store capacity");
  }
  set_row(donated_slot(node), donated_count_[node], links);
}

void NodeStore::set_row(std::size_t first, std::uint32_t& count,
                        std::span<const NodeId> links) {
  for (NodeId v : links) {
    if (v < 0 || static_cast<std::size_t>(v) >= size()) {
      throw std::out_of_range("link target out of range");
    }
  }
  for (std::size_t i = 0; i < count; ++i) unlink(first + i);
  std::copy(links.begin(), links.end(),
            links_.begin() + static_cast<std::ptrdiff_t>(first));
  for (std::size_t i = 0; i < links.size(); ++i) link(first + i);
  count = static_cast<std::uint32_t>(links.size());
}

void NodeStore::link(std::size_t slot) {
  const auto id = static_cast<std::uint32_t>(slot);
  std::uint32_t& head = in_head_[static_cast<std::size_t>(links_[slot])];
  in_prev_[slot] = kNoSlot;
  in_next_[slot] = head;
  if (head != kNoSlot) in_prev_[head] = id;
  head = id;
}

void NodeStore::unlink(std::size_t slot) {
  const std::uint32_t prev = in_prev_[slot];
  const std::uint32_t next = in_next_[slot];
  if (prev != kNoSlot) {
    in_next_[prev] = next;
  } else {
    in_head_[static_cast<std::size_t>(links_[slot])] = next;
  }
  if (next != kNoSlot) in_prev_[next] = prev;
}

std::size_t NodeStore::owner(std::size_t slot) const {
  const std::size_t wiring_slots = size() * wiring_cap_;
  return slot < wiring_slots ? slot / wiring_cap_
                             : (slot - wiring_slots) / donated_cap_;
}

void NodeStore::collect_holders(std::size_t node, std::vector<NodeId>& out,
                                bool wiring_only) const {
  out.clear();
  const std::size_t wiring_slots = size() * wiring_cap_;
  for (std::uint32_t s = in_head_[node]; s != kNoSlot; s = in_next_[s]) {
    if (wiring_only && s >= wiring_slots) continue;
    const std::size_t u = owner(s);
    if (u != node && is_online(u)) out.push_back(static_cast<NodeId>(u));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

void EpochStore::begin(std::size_t wiring_capacity, std::size_t slots,
                       std::size_t entries) {
  wiring_cap_ = wiring_capacity;
  node_.clear();
  pool_offset_.assign(1, 0);
  pool_ids_.clear();
  pool_values_.clear();
  proposed_.clear();
  proposed_count_.clear();
  flags_.clear();
  node_.reserve(slots);
  pool_offset_.reserve(slots + 1);
  pool_ids_.reserve(entries);
  pool_values_.reserve(entries);
  proposed_.reserve(slots * wiring_capacity);
  proposed_count_.reserve(slots);
  flags_.reserve(slots);
}

std::size_t EpochStore::add_pool(NodeId node, std::span<const NodeId> ids,
                                 std::span<const double> values) {
  if (ids.size() != values.size()) {
    throw std::invalid_argument("pool ids/values size mismatch");
  }
  node_.push_back(node);
  pool_ids_.insert(pool_ids_.end(), ids.begin(), ids.end());
  pool_values_.insert(pool_values_.end(), values.begin(), values.end());
  pool_offset_.push_back(pool_ids_.size());
  proposed_.resize(proposed_.size() + wiring_cap_, NodeId{-1});
  proposed_count_.push_back(0);
  flags_.push_back(0);
  return node_.size() - 1;
}

void EpochStore::set_proposal(std::size_t slot, std::span<const NodeId> wiring,
                              bool adopt, bool search_skipped) {
  if (wiring.size() > wiring_cap_) {
    throw std::length_error("proposal exceeds store capacity");
  }
  std::copy(wiring.begin(), wiring.end(),
            proposed_.begin() + static_cast<std::ptrdiff_t>(slot * wiring_cap_));
  proposed_count_[slot] = static_cast<std::uint32_t>(wiring.size());
  flags_[slot] = static_cast<std::uint8_t>((adopt ? kAdopt : 0) |
                                          (search_skipped ? kSearchSkipped : 0));
}

}  // namespace egoist::overlay
