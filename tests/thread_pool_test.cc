// Unit tests for the thread pool and the worker engine built on it.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "engine/partitioner.h"
#include "engine/worker_engine.h"

namespace ricd {
namespace {

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // Must not hang.
}

TEST(ThreadPoolTest, MultipleWaitCycles) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) pool.Submit([&count] { count.fetch_add(1); });
    pool.Wait();
    EXPECT_EQ(count.load(), (round + 1) * 20);
  }
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.Submit([&count] { count.fetch_add(1); });
  }
  EXPECT_EQ(count.load(), 50);
}

/// Property sweep over (n, parts) combinations.
class PartitionPropertyTest
    : public ::testing::TestWithParam<std::pair<uint32_t, size_t>> {};

TEST_P(PartitionPropertyTest, CoverageAndBalanceInvariants) {
  const auto [n, parts] = GetParam();
  const auto ranges = engine::PartitionRange(n, parts);
  uint32_t total = 0;
  uint32_t prev_end = 0;
  for (const auto& r : ranges) {
    EXPECT_EQ(r.begin, prev_end);
    EXPECT_LE(r.begin, r.end);
    prev_end = r.end;
    total += r.size();
  }
  EXPECT_EQ(total, n);
  EXPECT_EQ(prev_end, n);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionPropertyTest,
    ::testing::Values(std::pair<uint32_t, size_t>{1, 1},
                      std::pair<uint32_t, size_t>{1, 16},
                      std::pair<uint32_t, size_t>{16, 16},
                      std::pair<uint32_t, size_t>{17, 16},
                      std::pair<uint32_t, size_t>{1000, 3},
                      std::pair<uint32_t, size_t>{999983, 48}));

TEST(WorkerEngineTest, ParallelForChunksVisitsEveryIndexOnce) {
  engine::WorkerEngine eng(4);
  std::vector<std::atomic<int>> hits(1000);
  eng.ParallelForChunks(1000, [&hits](size_t, engine::VertexRange r) {
    for (uint32_t i = r.begin; i < r.end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerEngineTest, ParallelForChunksCoverDisjointly) {
  engine::WorkerEngine eng(3);
  std::vector<int> owner(100, -1);
  eng.ParallelForChunks(100, [&owner](size_t worker, engine::VertexRange r) {
    for (uint32_t i = r.begin; i < r.end; ++i) owner[i] = static_cast<int>(worker);
  });
  for (int o : owner) EXPECT_GE(o, 0);
}

TEST(WorkerEngineTest, ParallelForChunksPerWorkerSums) {
  engine::WorkerEngine eng(4);
  std::vector<uint64_t> partials(eng.num_workers(), 0);
  eng.ParallelForChunks(1000, [&partials](size_t worker,
                                          engine::VertexRange r) {
    for (uint32_t i = r.begin; i < r.end; ++i) partials[worker] += i;
  });
  uint64_t sum = 0;
  for (const uint64_t p : partials) sum += p;
  EXPECT_EQ(sum, 999u * 1000u / 2);
}

TEST(WorkerEngineTest, SingleWorkerEngine) {
  engine::WorkerEngine eng(1);
  EXPECT_EQ(eng.num_workers(), 1u);
  std::vector<int> hits(10, 0);
  eng.ParallelForChunks(10, [&hits](size_t, engine::VertexRange r) {
    for (uint32_t i = r.begin; i < r.end; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(WorkerEngineTest, DefaultEngineIsUsable) {
  const auto& eng = engine::DefaultEngine();
  EXPECT_GE(eng.num_workers(), 1u);
  std::atomic<int> count{0};
  eng.ParallelForChunks(16, [&count](size_t, engine::VertexRange r) {
    count.fetch_add(static_cast<int>(r.end - r.begin));
  });
  EXPECT_EQ(count.load(), 16);
}

TEST(WorkerEngineTest, ZeroElementLoopIsNoop) {
  engine::WorkerEngine eng(2);
  bool called = false;
  eng.ParallelForChunks(0, [&called](size_t, engine::VertexRange) {
    called = true;
  });
  EXPECT_FALSE(called);
}

}  // namespace
}  // namespace ricd
