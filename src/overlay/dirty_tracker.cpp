#include "overlay/dirty_tracker.hpp"

#include <algorithm>
#include <cmath>

namespace egoist::overlay {

void DirtyTracker::reset(std::size_t n, double drift_threshold) {
  threshold_ = drift_threshold;
  dirty_.assign(n, 1);
  dirty_count_ = n;
  base_links_.assign(n, {});
  base_values_.assign(n, {});
}

void DirtyTracker::mark(std::size_t v) {
  if (dirty_[v] == 0) {
    dirty_[v] = 1;
    ++dirty_count_;
  }
}

void DirtyTracker::mark_all() {
  std::fill(dirty_.begin(), dirty_.end(), std::uint8_t{1});
  dirty_count_ = dirty_.size();
}

void DirtyTracker::clear(std::size_t v) {
  if (dirty_[v] != 0) {
    dirty_[v] = 0;
    --dirty_count_;
  }
}

bool DirtyTracker::cost_moved(double old_value, double new_value) const {
  if (exact()) return old_value != new_value;
  const double scale = std::max(std::abs(old_value), 1e-9);
  return std::abs(new_value - old_value) > threshold_ * scale;
}

bool DirtyTracker::announce_delta_significant(
    std::span<const graph::Edge> old_row,
    std::span<const graph::Edge> new_row) const {
  if (old_row.size() != new_row.size()) return true;
  // Rows may be unsorted; match each new edge against the old row. Rows
  // are k-bounded so the quadratic scan stays cheap.
  for (const auto& e : new_row) {
    const auto it = std::find_if(
        old_row.begin(), old_row.end(),
        [&](const graph::Edge& o) { return o.to == e.to; });
    if (it == old_row.end()) return true;  // edge-set change
    if (cost_moved(it->weight, e.weight)) return true;
  }
  return false;
}

void DirtyTracker::on_membership(std::size_t node, bool global_candidates,
                                 std::span<const graph::NodeId> holders) {
  if (exact() || global_candidates) {
    // A join/leave changes every node's candidate set when candidates are
    // global; in exact mode we stay conservative regardless.
    mark_all();
    return;
  }
  mark(node);
  for (const auto h : holders) mark(static_cast<std::size_t>(h));
}

void DirtyTracker::set_baseline(std::size_t v,
                                std::span<const graph::NodeId> links,
                                std::span<const double> values) {
  auto& bl = base_links_[v];
  auto& bv = base_values_[v];
  bl.assign(links.begin(), links.end());
  bv.resize(bl.size());
  for (std::size_t i = 0; i < bl.size(); ++i) {
    bv[i] = values[static_cast<std::size_t>(bl[i])];
  }
}

bool DirtyTracker::drift_exceeded(std::size_t v,
                                  std::span<const graph::NodeId> links,
                                  std::span<const double> fresh) const {
  if (exact()) return false;
  const auto& bl = base_links_[v];
  const auto& bv = base_values_[v];
  for (std::size_t i = 0; i < links.size(); ++i) {
    const auto it = std::find(bl.begin(), bl.end(), links[i]);
    if (it == bl.end()) return true;  // link gained since last evaluation
    const double base = bv[static_cast<std::size_t>(it - bl.begin())];
    if (cost_moved(base, fresh[i])) return true;
  }
  return false;
}

}  // namespace egoist::overlay
