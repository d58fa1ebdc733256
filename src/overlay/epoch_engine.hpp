// Worker-side machinery of the deterministic epoch pipeline.
//
// EgoistNetwork::run_epoch runs every §5 scale-mode epoch in three phases,
// after a boundary that refreshes the landmarks, takes the fold penalty
// and shuffles the online nodes (nodes are not synchronized, §4.2):
//
//   snapshot  — sequential: every RNG draw (landmarks and the node order
//               at the boundary, then sample pools) and every stateful
//               measurement (dirty checks with their drift probes, ping
//               EWMAs, noise streams) happens here, each evaluated node's
//               row captured into the next EpochStore slot.
//   evaluate  — each slot's best response is computed against the
//               immutable boundary state: inline at workers 0, across the
//               pool at >= 1. A task reads only frozen state plus its own
//               slot's row and writes only its slot's proposal, so the
//               outcome is independent of scheduling.
//   merge     — sequential, in slot order: adopted proposals are applied
//               and hooks fire, so observers see one canonical order.
//
// A scale-mode evaluation reads only boundary state (landmark rows, the
// fold penalty, its own row and wiring), which no commit writes, so
// deferring the commits to the merge leaves the sequential schedule's
// trajectory in place. Because the evaluate phase is a pure per-slot
// function of the snapshot, the trajectory is bit-identical at every
// worker count — the contract tests/overlay/parallel_epoch_test.cpp
// enforces. A dense evaluation reads the whole announced graph, which
// every earlier commit writes, so dense epochs stay sequential.
//
// EpochEngine owns the reusable worker pool and one workspace per worker,
// so steady-state epochs allocate nothing new. Every evaluation on the
// calling thread (workers 0, the sequential schedules) goes through one
// more workspace of its own.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/policies.hpp"
#include "graph/path_engine.hpp"
#include "util/worker_pool.hpp"

namespace egoist::overlay {

/// Mutable state for one node evaluation at a time: one per pool worker
/// (index w belongs to pool worker w), plus the calling thread's own.
struct EpochWorkspace {
  graph::PathEngine::QueryScratch query;
  core::BestResponseScratch br;
  graph::DistanceMatrix residual;
  /// The node-indexed form of the measurement row under evaluation (n
  /// entries): what the objectives and the announce path index by id.
  std::vector<double> direct;
  /// The ids the last expand() wrote, cleared by the next one.
  std::vector<graph::NodeId> written;

  /// Makes a pool-order measurement row node-indexed in `direct`: value
  /// i lands at pool[i], every other entry holds `unmeasured`. Only the
  /// first call (or a size change) fills n entries; later calls reset the
  /// previous row's ids, so an expansion costs O(pool).
  const std::vector<double>& expand(std::span<const graph::NodeId> pool,
                                    std::span<const double> values,
                                    std::size_t nodes, double unmeasured) {
    if (direct.size() != nodes) {
      direct.assign(nodes, unmeasured);
    } else {
      for (graph::NodeId id : written) {
        direct[static_cast<std::size_t>(id)] = unmeasured;
      }
    }
    written.assign(pool.begin(), pool.end());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      direct[static_cast<std::size_t>(pool[i])] = values[i];
    }
    return direct;
  }
};

class EpochEngine {
 public:
  /// `workers` >= 1.
  explicit EpochEngine(int workers) : pool_(workers) {
    workspaces_.resize(static_cast<std::size_t>(pool_.size()));
  }

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
