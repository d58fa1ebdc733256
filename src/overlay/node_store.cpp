#include "overlay/node_store.hpp"

#include <algorithm>
#include <stdexcept>

namespace egoist::overlay {

NodeStore::NodeStore(std::size_t nodes, std::size_t wiring_capacity,
                     std::size_t donated_capacity)
    : wiring_cap_(wiring_capacity),
      donated_cap_(donated_capacity),
      wiring_(nodes * wiring_capacity, NodeId{-1}),
      wiring_count_(nodes, 0),
      donated_(nodes * donated_capacity, NodeId{-1}),
      donated_count_(nodes, 0),
      online_(nodes, 0) {}

std::size_t NodeStore::online_count() const {
  return static_cast<std::size_t>(
      std::count(online_.begin(), online_.end(), std::uint8_t{1}));
}

std::vector<NodeId> NodeStore::online_nodes() const {
  std::vector<NodeId> out;
  for (std::size_t v = 0; v < online_.size(); ++v) {
    if (online_[v]) out.push_back(static_cast<NodeId>(v));
  }
  return out;
}

void NodeStore::set_wiring(std::size_t node, std::span<const NodeId> links) {
  if (links.size() > wiring_cap_) {
    throw std::length_error("wiring exceeds store capacity");
  }
  std::copy(links.begin(), links.end(), wiring_.begin() +
                                            static_cast<std::ptrdiff_t>(
                                                node * wiring_cap_));
  wiring_count_[node] = static_cast<std::uint32_t>(links.size());
}

void NodeStore::set_donated(std::size_t node, std::span<const NodeId> links) {
  if (links.size() > donated_cap_) {
    throw std::length_error("donated links exceed store capacity");
  }
  std::copy(links.begin(), links.end(), donated_.begin() +
                                            static_cast<std::ptrdiff_t>(
                                                node * donated_cap_));
  donated_count_[node] = static_cast<std::uint32_t>(links.size());
}

void EpochStore::begin(std::size_t nodes, std::size_t wiring_capacity) {
  wiring_cap_ = wiring_capacity;
  proposed_.assign(nodes * wiring_capacity, NodeId{-1});
  proposed_count_.assign(nodes, 0);
  adopt_.assign(nodes, 0);
  pool_offset_.assign(1, 0);
  pool_offset_.reserve(nodes + 1);
  pool_ids_.clear();
  pool_values_.clear();
}

void EpochStore::add_pool(std::size_t node, std::span<const NodeId> ids,
                          std::span<const double> values) {
  if (ids.size() != values.size()) {
    throw std::invalid_argument("pool ids/values size mismatch");
  }
  if (node + 1 < pool_offset_.size()) {
    throw std::invalid_argument("pools must be appended in ascending order");
  }
  // Nodes skipped since the last append get empty pools.
  while (pool_offset_.size() <= node) pool_offset_.push_back(pool_ids_.size());
  pool_ids_.insert(pool_ids_.end(), ids.begin(), ids.end());
  pool_values_.insert(pool_values_.end(), values.begin(), values.end());
  pool_offset_.push_back(pool_ids_.size());
}

std::span<const NodeId> EpochStore::pool_ids(std::size_t node) const {
  if (node + 1 >= pool_offset_.size()) return {};
  return {pool_ids_.data() + pool_offset_[node],
          pool_offset_[node + 1] - pool_offset_[node]};
}

std::span<const double> EpochStore::pool_values(std::size_t node) const {
  if (node + 1 >= pool_offset_.size()) return {};
  return {pool_values_.data() + pool_offset_[node],
          pool_offset_[node + 1] - pool_offset_[node]};
}

void EpochStore::set_proposal(std::size_t node, std::span<const NodeId> wiring,
                              bool adopt) {
  if (wiring.size() > wiring_cap_) {
    throw std::length_error("proposal exceeds store capacity");
  }
  std::copy(wiring.begin(), wiring.end(),
            proposed_.begin() + static_cast<std::ptrdiff_t>(node * wiring_cap_));
  proposed_count_[node] = static_cast<std::uint32_t>(wiring.size());
  adopt_[node] = adopt ? 1 : 0;
}

}  // namespace egoist::overlay
