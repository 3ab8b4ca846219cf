#ifndef RICD_ENGINE_WORKER_ENGINE_H_
#define RICD_ENGINE_WORKER_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "engine/partitioner.h"
#include "obs/metrics.h"

namespace ricd::engine {

/// The parallel execution substrate for all graph algorithms — our stand-in
/// for the Grape engine the paper ran on. Grape exposes "N workers each
/// owning a vertex partition"; WorkerEngine reproduces that model with a
/// thread pool plus range partitioning, so algorithm code is written once
/// against worker-local ranges and scales with the worker count.
///
/// Every engine feeds the global observability registry:
///   engine.pool.tasks_total          counter, tasks executed
///   engine.pool.queue_wait_seconds   histogram, submit -> start latency
///   engine.pool.task_run_seconds     histogram, task execution time
///   engine.pool.workers              gauge, worker count
///   engine.pool.utilization          gauge, busy time / (wall * workers)
/// Engines share these names, so with several engines alive the gauges
/// reflect the engine that ran last (in practice: the default engine).
class WorkerEngine {
 public:
  /// Creates an engine with `num_workers` workers (0 = hardware threads).
  explicit WorkerEngine(size_t num_workers = 0);

  size_t num_workers() const { return pool_->num_threads(); }

  /// Parallel loop over a balanced range partition of [0, n):
  /// `fn(worker, range)` is a compile-time functor invoked once per worker
  /// range, so the element loop inside it is inlined into the caller's body
  /// — type erasure happens once per worker task, never per element. Blocks
  /// until all workers finish. `fn` must only write to worker-private or
  /// per-vertex-disjoint state.
  template <typename Fn>
  void ParallelForChunks(uint32_t n, Fn&& fn) const {
    if (n == 0) return;
    RunPartitioned(PartitionRange(n, num_workers()), std::forward<Fn>(fn));
  }

 private:
  /// Runs `fn(worker, ranges[worker])` across the pool; a single worker or
  /// a single range runs inline on the calling thread.
  template <typename Fn>
  void RunPartitioned(const std::vector<VertexRange>& ranges, Fn&& fn) const {
    if (ranges.empty()) return;
    if (num_workers() == 1 || ranges.size() == 1) {
      const auto started_at = std::chrono::steady_clock::now();
      fn(size_t{0}, ranges[0]);
      RecordInlineTask(started_at);
      return;
    }
    for (size_t w = 0; w < ranges.size(); ++w) {
      pool_->Submit([w, range = ranges[w], &fn] { fn(w, range); });
    }
    pool_->Wait();
    UpdateUtilization();
  }

  /// Books a task that ran inline on the calling thread (single-worker or
  /// single-range fast path) into the pool metrics.
  void RecordInlineTask(std::chrono::steady_clock::time_point started_at) const;

  /// Refreshes engine.pool.utilization from the busy-time accumulator.
  void UpdateUtilization() const;

  obs::Counter* const tasks_total_;
  obs::Histogram* const queue_wait_hist_;
  obs::Histogram* const task_run_hist_;
  obs::Gauge* const workers_gauge_;
  obs::Gauge* const utilization_gauge_;
  mutable std::atomic<uint64_t> busy_nanos_{0};
  std::chrono::steady_clock::time_point created_at_;
  std::unique_ptr<ThreadPool> pool_;
};

/// Returns a process-wide default engine. Sized by the RICD_WORKERS
/// environment variable when set to a positive integer, otherwise by the
/// hardware thread count. Bench and example binaries that do not care about
/// worker placement use this.
const WorkerEngine& DefaultEngine();

}  // namespace ricd::engine

#endif  // RICD_ENGINE_WORKER_ENGINE_H_
