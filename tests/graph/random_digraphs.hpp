// Random digraphs and a graph reverser for the CSR reference tests
// (csr_search_test.cpp, paths_to_test.cpp). The graphs carry small integer
// weights (exact ties, zero-weight edges), real weights, or +inf, NaN and
// -0.0 weights between active nodes, and a share of inactive nodes.
#pragma once

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <vector>

#include "graph/digraph.hpp"
#include "util/rng.hpp"

namespace egoist::testing {

enum class Weights { kIntegers, kReals, kNonFinite, kSignedZeros };

/// Random digraph: each node draws `out_degree` targets (duplicates and
/// self-picks dropped), a share of nodes starts inactive. kSignedZeros is
/// kNonFinite with -0.0 in place of one integer pick in ten: -0.0 passes
/// the non-negative check yet never strictly improves a widest value of 0.
inline graph::Digraph random_digraph(util::Rng& rng, std::size_t n,
                                     std::size_t out_degree,
                                     double inactive_fraction,
                                     Weights weights) {
  graph::Digraph g(n);
  for (std::size_t u = 0; u < n; ++u) {
    if (rng.chance(inactive_fraction)) {
      g.set_active(static_cast<graph::NodeId>(u), false);
    }
  }
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t d = 0; d < out_degree; ++d) {
      const auto v = static_cast<graph::NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      if (v == static_cast<graph::NodeId>(u)) continue;
      double w = 0.0;
      switch (weights) {
        case Weights::kIntegers:  // 0..3: exact ties and zero-weight edges
          w = static_cast<double>(rng.uniform_int(0, 3));
          break;
        case Weights::kReals:
          w = rng.uniform(0.1, 100.0);
          break;
        case Weights::kNonFinite:
        case Weights::kSignedZeros: {
          const auto pick = rng.uniform_int(0, 9);
          w = pick == 0   ? std::numeric_limits<double>::infinity()
              : pick == 1 ? std::numeric_limits<double>::quiet_NaN()
              : pick == 2 && weights == Weights::kSignedZeros
                  ? -0.0
                  : static_cast<double>(rng.uniform_int(0, 3));
          break;
        }
      }
      g.set_edge(static_cast<graph::NodeId>(u), v, w);
    }
  }
  return g;
}

/// Every edge u -> v of g as v -> u, activity flags kept.
inline graph::Digraph reversed(const graph::Digraph& g) {
  graph::Digraph r(g.node_count());
  for (std::size_t u = 0; u < g.node_count(); ++u) {
    const auto uid = static_cast<graph::NodeId>(u);
    r.set_active(uid, g.is_active(uid));
    for (const graph::Edge& e : g.out_edges(uid)) {
      r.set_edge(e.to, uid, e.weight);
    }
  }
  return r;
}

/// The graphs every reference comparison runs on: n in {1, 2, 9, 40, 90}
/// for each of `kinds`, 15% of nodes inactive.
inline std::vector<graph::Digraph> csr_fixtures(
    std::initializer_list<Weights> kinds = {Weights::kIntegers, Weights::kReals,
                                            Weights::kNonFinite}) {
  util::Rng rng(0xC5125EA2u);
  std::vector<graph::Digraph> graphs;
  for (const Weights weights : kinds) {
    for (const std::size_t n : {1, 2, 9, 40, 90}) {
      graphs.push_back(random_digraph(rng, n, 1 + n % 5, 0.15, weights));
    }
  }
  return graphs;
}

inline std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

}  // namespace egoist::testing
