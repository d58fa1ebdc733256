// The two path folds every CSR traversal computes: shortest paths (min
// over paths of the left-to-right sum of weights) and widest paths (max
// over paths of the minimum weight). PathEngine and CsrSearch share these
// helpers, so both fold a path exactly the same way.
#pragma once

#include <algorithm>
#include <limits>
#include <type_traits>

#include "graph/shortest_path.hpp"

namespace egoist::graph::detail {

/// Value of a node no path has reached yet.
template <bool kWidest>
constexpr double init_value() {
  return kWidest ? 0.0 : kUnreachable;
}

/// Value of the search's own source.
template <bool kWidest>
constexpr double source_value() {
  return kWidest ? std::numeric_limits<double>::infinity() : 0.0;
}

/// Extends a path ending at `upstream` by one edge of `weight`.
template <bool kWidest>
double combine(double upstream, double weight) {
  if constexpr (kWidest) {
    return std::min(upstream, weight);
  } else {
    return upstream + weight;
  }
}

/// Strict "a is a better path value than b" for the fold.
constexpr auto make_better(std::bool_constant<true>) {
  return [](double a, double b) { return a > b; };
}
constexpr auto make_better(std::bool_constant<false>) {
  return [](double a, double b) { return a < b; };
}

}  // namespace egoist::graph::detail
