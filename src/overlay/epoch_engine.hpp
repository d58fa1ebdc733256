// Worker-side machinery of the deterministic parallel epoch pipeline.
//
// EgoistNetwork::run_epoch splits a parallel epoch (config.epoch_workers
// >= 1, BR/HybridBR policies) into three phases:
//
//   snapshot  — sequential, ascending node order: all RNG draws (sample
//               pools, landmark choices) and all stateful measurements
//               (ping EWMAs, noise streams) happen here, captured into an
//               EpochStore; the decision graph is frozen and the shared
//               path-engine base trees are prepared.
//   evaluate  — parallel: each node's best response is computed against
//               the immutable epoch-start snapshot. A task reads only
//               frozen state plus its own EpochStore rows and writes only
//               its node's disjoint proposal slot, so the outcome is
//               independent of scheduling.
//   merge     — sequential, ascending node order: adopted proposals are
//               applied and hooks fire, so observers see one canonical
//               order.
//
// Because the evaluate phase is a pure per-node function of the snapshot,
// the whole epoch trajectory is bit-identical at any worker count — the
// contract tests/overlay/parallel_epoch_test.cpp enforces.
//
// EpochEngine owns the reusable worker pool and one workspace per worker
// (path-query scratch, best-response scratch, residual matrix, a
// measurement row buffer), so steady-state epochs allocate nothing new.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/policies.hpp"
#include "graph/path_engine.hpp"
#include "util/worker_pool.hpp"

namespace egoist::overlay {

/// Per-worker mutable state for the evaluate phase. Workers never share
/// one: index w belongs to pool worker w.
struct EpochWorkspace {
  graph::PathEngine::QueryScratch query;
  core::BestResponseScratch br;
  graph::DistanceMatrix residual;
  /// Full-size direct-measurement buffer: filled from a node's pool
  /// before evaluation, restored to defaults after, so each evaluation
  /// costs O(pool), not O(n).
  std::vector<double> direct;
};

class EpochEngine {
 public:
  /// `workers` >= 1 (resolve 0 = auto with util::WorkerPool::resolve
  /// before constructing).
  explicit EpochEngine(int workers) : pool_(workers) {
    workspaces_.resize(static_cast<std::size_t>(pool_.size()));
  }

  int workers() const { return pool_.size(); }

  using NodeTask = std::function<void(std::size_t, EpochWorkspace&)>;

  /// Runs fn(task, workspace) for every task in [0, tasks) across the
  /// pool. Deterministic for tasks with disjoint outputs (the evaluate
  /// phase); rethrows the lowest task's exception.
  void run(std::size_t tasks, const NodeTask& fn) {
    pool_.run(tasks, [&](std::size_t task, std::size_t worker) {
      fn(task, workspaces_[worker]);
    });
  }

 private:
  util::WorkerPool pool_;
  std::vector<EpochWorkspace> workspaces_;
};

}  // namespace egoist::overlay
