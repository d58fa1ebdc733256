// A small reusable worker pool for deterministic fan-out.
//
// The pool owns `size() - 1` persistent threads; the calling thread
// participates as worker 0, so a pool of size 1 never spawns or signals
// anything. run() executes one task function over an index range with
// dynamic load balancing (an atomic cursor): tasks whose outputs go to
// disjoint, per-task slots produce bit-identical results at any pool size
// and any scheduling, which is the contract every parallel caller in this
// codebase relies on (the epoch engine's per-node evaluations).
//
// Exceptions thrown by tasks are captured; after the batch drains, the one
// thrown by the lowest task index is rethrown on the calling thread, so
// failure behavior is also independent of scheduling.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace egoist::util {

class WorkerPool {
 public:
  /// A pool of exactly `threads` workers (>= 1; throws otherwise).
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int size() const { return static_cast<int>(helpers_.size()) + 1; }

  /// Task function: (task index, worker index). Worker indices are dense in
  /// [0, size()): per-worker scratch buffers can be plain vectors.
  using Task = std::function<void(std::size_t, std::size_t)>;

  /// Runs fn for every task in [0, tasks), distributing tasks over the
  /// workers via an atomic cursor, and returns when all have finished.
  /// Not reentrant: run() must not be called from inside a task.
  void run(std::size_t tasks, const Task& fn);

 private:
  void worker_loop(std::size_t worker);
  void work_through(std::size_t worker);

  std::vector<std::thread> helpers_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const Task* fn_ = nullptr;          ///< non-null while a batch is active
  std::size_t tasks_ = 0;
  std::atomic<std::size_t> cursor_{0};
  std::size_t busy_ = 0;              ///< helpers still inside the batch
  std::uint64_t generation_ = 0;      ///< batch counter (wakeup predicate)
  bool stop_ = false;

  std::mutex error_mutex_;
  std::exception_ptr error_;
  std::size_t error_task_ = 0;
};

}  // namespace egoist::util
