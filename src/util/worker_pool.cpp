#include "util/worker_pool.hpp"

#include <stdexcept>

namespace egoist::util {

WorkerPool::WorkerPool(int threads) {
  if (threads < 1) throw std::invalid_argument("pool needs >= 1 worker");
  helpers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int w = 1; w < threads; ++w) {
    helpers_.emplace_back(&WorkerPool::worker_loop, this,
                          static_cast<std::size_t>(w));
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& t : helpers_) t.join();
}

void WorkerPool::work_through(std::size_t worker) {
  while (true) {
    const std::size_t task = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (task >= tasks_) return;
    try {
      (*fn_)(task, worker);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (!error_ || task < error_task_) {
        error_ = std::current_exception();
        error_task_ = task;
      }
    }
  }
}

void WorkerPool::worker_loop(std::size_t worker) {
  std::uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    work_through(worker);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --busy_;
    }
    done_cv_.notify_one();
  }
}

void WorkerPool::run(std::size_t tasks, const Task& fn) {
  if (tasks == 0) return;
  fn_ = &fn;
  tasks_ = tasks;
  cursor_.store(0, std::memory_order_relaxed);
  error_ = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    busy_ = helpers_.size();
    ++generation_;
  }
  start_cv_.notify_all();
  work_through(0);  // the calling thread is worker 0
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return busy_ == 0; });
  }
  fn_ = nullptr;
  if (error_) std::rethrow_exception(error_);
}

}  // namespace egoist::util
