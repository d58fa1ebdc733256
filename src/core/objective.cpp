#include "core/objective.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/shortest_path.hpp"

namespace egoist::core {

namespace {

void validate_common(NodeId self, const std::vector<NodeId>& candidates,
                     std::size_t direct_size,
                     const graph::DistanceMatrix& residual,
                     const std::vector<NodeId>& targets) {
  const std::size_t n = residual.rows();
  if (residual.cols() != n) {
    throw std::invalid_argument("residual matrix not square");
  }
  if (direct_size != n) {
    throw std::invalid_argument("direct cost vector size mismatch");
  }
  auto in_range = [n](NodeId v) {
    return v >= 0 && static_cast<std::size_t>(v) < n;
  };
  if (!in_range(self)) throw std::out_of_range("self out of range");
  for (NodeId v : candidates) {
    if (!in_range(v)) throw std::out_of_range("candidate out of range");
    if (v == self) throw std::invalid_argument("self cannot be a candidate");
  }
  for (NodeId j : targets) {
    if (!in_range(j)) throw std::out_of_range("target out of range");
  }
}

}  // namespace

double WiringObjective::no_link_value() const {
  return maximize_link_value() ? 0.0 : graph::kUnreachable;
}

void WiringObjective::fill_link_values(std::span<const NodeId> sources,
                                       std::span<const NodeId> targets,
                                       std::span<double> out) const {
  if (out.size() != sources.size() * targets.size()) {
    throw std::invalid_argument("link value buffer size mismatch");
  }
  for (std::size_t s = 0; s < sources.size(); ++s) {
    for (std::size_t t = 0; t < targets.size(); ++t) {
      out[s * targets.size() + t] = link_value(sources[s], targets[t]);
    }
  }
}

double WiringObjective::cost(std::span<const NodeId> wiring) const {
  const bool maximize = maximize_link_value();
  double total = 0.0;
  for (NodeId j : targets()) {
    if (j == self()) continue;
    double best = no_link_value();
    for (NodeId v : wiring) {
      const double value = link_value(v, j);
      best = maximize ? std::max(best, value) : std::min(best, value);
    }
    total += target_weight(j) * fold(best);
  }
  return total;
}

DelayObjective::DelayObjective(NodeId self, std::vector<NodeId> candidates,
                               std::vector<double> direct_cost,
                               graph::DistanceMatrix residual_dist,
                               std::vector<double> preference,
                               std::vector<NodeId> targets,
                               double unreachable_penalty)
    : self_(self),
      candidates_(std::move(candidates)),
      direct_cost_(std::move(direct_cost)),
      owned_residual_(std::move(residual_dist)),
      preference_(std::move(preference)),
      targets_(std::move(targets)),
      unreachable_penalty_(unreachable_penalty) {
  validate_common(self_, candidates_, direct_cost_.size(), residual(), targets_);
  if (preference_.size() != residual().rows()) {
    throw std::invalid_argument("preference vector size mismatch");
  }
  if (unreachable_penalty_ < 0.0) {
    throw std::invalid_argument("penalty must be non-negative");
  }
}

DelayObjective::DelayObjective(NodeId self, std::vector<NodeId> candidates,
                               std::vector<double> direct_cost,
                               const std::vector<std::vector<double>>& residual_dist,
                               std::vector<double> preference,
                               std::vector<NodeId> targets,
                               double unreachable_penalty)
    : DelayObjective(self, std::move(candidates), std::move(direct_cost),
                     graph::DistanceMatrix::from_nested(residual_dist),
                     std::move(preference), std::move(targets),
                     unreachable_penalty) {}

DelayObjective::DelayObjective(NodeId self, std::vector<NodeId> candidates,
                               std::vector<double> direct_cost,
                               const graph::DistanceMatrix* residual_view,
                               std::vector<double> preference,
                               std::vector<NodeId> targets,
                               double unreachable_penalty)
    : self_(self),
      candidates_(std::move(candidates)),
      direct_cost_(std::move(direct_cost)),
      external_residual_(residual_view),
      preference_(std::move(preference)),
      targets_(std::move(targets)),
      unreachable_penalty_(unreachable_penalty) {
  if (external_residual_ == nullptr) {
    throw std::invalid_argument("residual view may not be null");
  }
  validate_common(self_, candidates_, direct_cost_.size(), residual(), targets_);
  if (preference_.size() != residual().rows()) {
    throw std::invalid_argument("preference vector size mismatch");
  }
  if (unreachable_penalty_ < 0.0) {
    throw std::invalid_argument("penalty must be non-negative");
  }
}

double DelayObjective::link_value(NodeId v, NodeId j) const {
  const double direct = direct_cost_[static_cast<std::size_t>(v)];
  if (v == j) return direct;
  const double through =
      residual()(static_cast<std::size_t>(v), static_cast<std::size_t>(j));
  // Clamp before summing: when either leg is unreachable the link is, and
  // summing an unreachable sentinel with a finite leg must not produce a
  // value that escapes the == kUnreachable checks in fold()/distance_to().
  if (through == graph::kUnreachable || direct == graph::kUnreachable) {
    return graph::kUnreachable;
  }
  return direct + through;
}

void DelayObjective::fill_link_values(std::span<const NodeId> sources,
                                      std::span<const NodeId> targets,
                                      std::span<double> out) const {
  if (out.size() != sources.size() * targets.size()) {
    throw std::invalid_argument("link value buffer size mismatch");
  }
  const graph::DistanceMatrix& dist = residual();
  std::size_t i = 0;
  for (const NodeId v : sources) {
    const double direct = direct_cost_[static_cast<std::size_t>(v)];
    const auto row = dist.row(static_cast<std::size_t>(v));
    for (const NodeId j : targets) {
      double value;
      if (v == j) {
        value = direct;
      } else {
        const double through = row[static_cast<std::size_t>(j)];
        value = (through == graph::kUnreachable || direct == graph::kUnreachable)
                    ? graph::kUnreachable
                    : direct + through;
      }
      out[i++] = value;
    }
  }
}

double DelayObjective::fold(double best_value) const {
  return best_value == graph::kUnreachable ? unreachable_penalty_ : best_value;
}

double DelayObjective::distance_to(std::span<const NodeId> wiring, NodeId j) const {
  double best = graph::kUnreachable;
  for (NodeId v : wiring) best = std::min(best, link_value(v, j));
  return best;
}

BandwidthObjective::BandwidthObjective(NodeId self, std::vector<NodeId> candidates,
                                       std::vector<double> direct_bw,
                                       graph::DistanceMatrix residual_bw,
                                       std::vector<NodeId> targets)
    : self_(self),
      candidates_(std::move(candidates)),
      direct_bw_(std::move(direct_bw)),
      owned_residual_(std::move(residual_bw)),
      targets_(std::move(targets)) {
  validate_common(self_, candidates_, direct_bw_.size(), residual(), targets_);
}

BandwidthObjective::BandwidthObjective(NodeId self, std::vector<NodeId> candidates,
                                       std::vector<double> direct_bw,
                                       const std::vector<std::vector<double>>& residual_bw,
                                       std::vector<NodeId> targets)
    : BandwidthObjective(self, std::move(candidates), std::move(direct_bw),
                         graph::DistanceMatrix::from_nested(residual_bw),
                         std::move(targets)) {}

BandwidthObjective::BandwidthObjective(NodeId self, std::vector<NodeId> candidates,
                                       std::vector<double> direct_bw,
                                       const graph::DistanceMatrix* residual_view,
                                       std::vector<NodeId> targets)
    : self_(self),
      candidates_(std::move(candidates)),
      direct_bw_(std::move(direct_bw)),
      external_residual_(residual_view),
      targets_(std::move(targets)) {
  if (external_residual_ == nullptr) {
    throw std::invalid_argument("residual view may not be null");
  }
  validate_common(self_, candidates_, direct_bw_.size(), residual(), targets_);
}

double BandwidthObjective::link_value(NodeId v, NodeId j) const {
  const double direct = direct_bw_[static_cast<std::size_t>(v)];
  if (v == j) return direct;
  return std::min(
      direct,
      residual()(static_cast<std::size_t>(v), static_cast<std::size_t>(j)));
}

void BandwidthObjective::fill_link_values(std::span<const NodeId> sources,
                                          std::span<const NodeId> targets,
                                          std::span<double> out) const {
  if (out.size() != sources.size() * targets.size()) {
    throw std::invalid_argument("link value buffer size mismatch");
  }
  const graph::DistanceMatrix& bw = residual();
  std::size_t i = 0;
  for (const NodeId v : sources) {
    const double direct = direct_bw_[static_cast<std::size_t>(v)];
    const auto row = bw.row(static_cast<std::size_t>(v));
    for (const NodeId j : targets) {
      out[i++] = v == j ? direct
                        : std::min(direct, row[static_cast<std::size_t>(j)]);
    }
  }
}

double BandwidthObjective::bandwidth_to(std::span<const NodeId> wiring,
                                        NodeId j) const {
  double best = 0.0;
  for (NodeId w : wiring) best = std::max(best, link_value(w, j));
  return best;
}

LandmarkObjective::LandmarkObjective(NodeId self, std::vector<NodeId> candidates,
                                     std::span<const double> direct,
                                     const graph::DistanceMatrix* landmark_dist,
                                     const std::vector<std::int32_t>* landmark_col,
                                     std::vector<NodeId> targets, bool maximize,
                                     double unreachable_penalty)
    : self_(self),
      candidates_(std::move(candidates)),
      direct_(direct),
      dist_(landmark_dist),
      col_(landmark_col),
      targets_(std::move(targets)),
      maximize_(maximize),
      unreachable_penalty_(unreachable_penalty) {
  if (dist_ == nullptr || col_ == nullptr) {
    throw std::invalid_argument("landmark state may not be null");
  }
  const std::size_t n = dist_->rows();
  if (col_->size() != n || direct_.size() != n) {
    throw std::invalid_argument("landmark state size mismatch");
  }
  auto in_range = [n](NodeId v) {
    return v >= 0 && static_cast<std::size_t>(v) < n;
  };
  if (!in_range(self_)) throw std::out_of_range("self out of range");
  for (NodeId v : candidates_) {
    if (!in_range(v)) throw std::out_of_range("candidate out of range");
    if (v == self_) throw std::invalid_argument("self cannot be a candidate");
  }
  for (NodeId j : targets_) {
    if (!in_range(j) || (*col_)[static_cast<std::size_t>(j)] < 0 ||
        static_cast<std::size_t>((*col_)[static_cast<std::size_t>(j)]) >=
            dist_->cols()) {
      throw std::invalid_argument("target is not a landmark");
    }
  }
  if (unreachable_penalty_ < 0.0) {
    throw std::invalid_argument("penalty must be non-negative");
  }
}

double LandmarkObjective::value_at(NodeId v, std::size_t col,
                                   double direct) const {
  const double through = (*dist_)(static_cast<std::size_t>(v), col);
  if (maximize_) return std::min(direct, through);
  if (through == graph::kUnreachable || direct == graph::kUnreachable) {
    return graph::kUnreachable;
  }
  return direct + through;
}

double LandmarkObjective::link_value(NodeId v, NodeId j) const {
  const double direct = direct_[static_cast<std::size_t>(v)];
  if (v == j) return direct;
  return value_at(v, static_cast<std::size_t>((*col_)[static_cast<std::size_t>(j)]),
                  direct);
}

void LandmarkObjective::fill_link_values(std::span<const NodeId> sources,
                                         std::span<const NodeId> targets,
                                         std::span<double> out) const {
  if (out.size() != sources.size() * targets.size()) {
    throw std::invalid_argument("link value buffer size mismatch");
  }
  std::size_t i = 0;
  for (const NodeId v : sources) {
    const double direct = direct_[static_cast<std::size_t>(v)];
    for (const NodeId j : targets) {
      out[i++] = v == j
                     ? direct
                     : value_at(v,
                                static_cast<std::size_t>(
                                    (*col_)[static_cast<std::size_t>(j)]),
                                direct);
    }
  }
}

double LandmarkObjective::fold(double best_value) const {
  if (maximize_) return -best_value;
  return best_value == graph::kUnreachable ? unreachable_penalty_ : best_value;
}

}  // namespace egoist::core
