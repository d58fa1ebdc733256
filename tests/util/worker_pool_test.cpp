#include "util/worker_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace egoist::util {
namespace {

TEST(WorkerPoolTest, ZeroWorkersThrows) {
  EXPECT_THROW(WorkerPool pool(0), std::invalid_argument);
}

TEST(WorkerPoolTest, SizeOnePoolRunsOnCallingThread) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  pool.run(seen.size(), [&](std::size_t task, std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    seen[task] = std::this_thread::get_id();
  });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(WorkerPoolTest, EveryTaskRunsExactlyOnceAtEveryPoolSize) {
  for (int threads : {1, 2, 4, 8}) {
    WorkerPool pool(threads);
    ASSERT_EQ(pool.size(), threads);
    constexpr std::size_t kTasks = 257;
    std::vector<std::atomic<int>> hits(kTasks);
    pool.run(kTasks, [&](std::size_t task, std::size_t worker) {
      ASSERT_LT(worker, static_cast<std::size_t>(threads));
      hits[task].fetch_add(1);
    });
    for (std::size_t t = 0; t < kTasks; ++t) {
      EXPECT_EQ(hits[t].load(), 1) << "task " << t << " threads " << threads;
    }
  }
}

TEST(WorkerPoolTest, DisjointSlotOutputsAreIdenticalAcrossPoolSizes) {
  constexpr std::size_t kTasks = 100;
  auto run_at = [&](int threads) {
    WorkerPool pool(threads);
    std::vector<std::uint64_t> out(kTasks, 0);
    pool.run(kTasks, [&](std::size_t task, std::size_t) {
      std::uint64_t v = task + 1;
      for (int i = 0; i < 50; ++i) v = v * 6364136223846793005ULL + 1442695040888963407ULL;
      out[task] = v;
    });
    return out;
  };
  const auto baseline = run_at(1);
  EXPECT_EQ(run_at(2), baseline);
  EXPECT_EQ(run_at(4), baseline);
  EXPECT_EQ(run_at(8), baseline);
}

TEST(WorkerPoolTest, PoolIsReusableAcrossBatches) {
  WorkerPool pool(4);
  std::vector<int> out(32, 0);
  for (int batch = 0; batch < 5; ++batch) {
    pool.run(out.size(),
             [&](std::size_t task, std::size_t) { out[task] += 1; });
  }
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 5 * 32);
}

TEST(WorkerPoolTest, ZeroTasksIsANoop) {
  WorkerPool pool(4);
  bool ran = false;
  pool.run(0, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(WorkerPoolTest, LowestTaskIndexExceptionWinsAtAnyPoolSize) {
  for (int threads : {1, 2, 4, 8}) {
    WorkerPool pool(threads);
    std::atomic<int> completed{0};
    try {
      pool.run(64, [&](std::size_t task, std::size_t) {
        if (task == 11 || task == 37) {
          throw std::runtime_error("task " + std::to_string(task));
        }
        completed.fetch_add(1);
      });
      FAIL() << "expected run() to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 11") << "threads " << threads;
    }
    // The batch drains before rethrowing: every non-throwing task still ran.
    EXPECT_EQ(completed.load(), 62) << "threads " << threads;
  }
}

TEST(WorkerPoolTest, PoolSurvivesAFailedBatch) {
  WorkerPool pool(4);
  EXPECT_THROW(
      pool.run(8, [](std::size_t, std::size_t) { throw std::logic_error("x"); }),
      std::logic_error);
  std::atomic<int> ran{0};
  pool.run(8, [&](std::size_t, std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

}  // namespace
}  // namespace egoist::util
