#include "engine/worker_engine.h"

#include <cctype>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/logging.h"
#include "obs/metric_names.h"

namespace ricd::engine {
namespace {

/// RICD_WORKERS=<n> pins the default engine's worker count. Anything that
/// is not a plain positive base-10 integer falls back to hardware sizing
/// with a warning (0 would build a hardware-sized pool anyway).
size_t WorkersFromEnv() {
  const char* env = std::getenv("RICD_WORKERS");
  if (env == nullptr || env[0] == '\0') return 0;
  const std::string value(env);
  bool all_digits = true;
  for (const char c : value) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) {
      all_digits = false;
      break;
    }
  }
  const long parsed = all_digits ? std::strtol(value.c_str(), nullptr, 10) : -1;
  if (parsed < 0 || parsed > 4096) {
    RICD_LOG(WARNING) << "invalid RICD_WORKERS '" << value
                      << "' (expected a positive integer), using hardware "
                         "concurrency";
    return 0;
  }
  return static_cast<size_t>(parsed);
}

}  // namespace

WorkerEngine::WorkerEngine(size_t num_workers)
    : tasks_total_(obs::MetricsRegistry::Global().GetCounter(
          obs::metric_names::kEnginePoolTasksTotal)),
      queue_wait_hist_(obs::MetricsRegistry::Global().GetHistogram(
          obs::metric_names::kEnginePoolQueueWaitSeconds)),
      task_run_hist_(obs::MetricsRegistry::Global().GetHistogram(
          obs::metric_names::kEnginePoolTaskRunSeconds)),
      workers_gauge_(obs::MetricsRegistry::Global().GetGauge(
          obs::metric_names::kEnginePoolWorkers)),
      utilization_gauge_(obs::MetricsRegistry::Global().GetGauge(
          obs::metric_names::kEnginePoolUtilization)) {
  if (num_workers == 0) {
    num_workers = std::thread::hardware_concurrency();
    if (num_workers == 0) num_workers = 1;
  }
  workers_gauge_->Set(static_cast<double>(num_workers));
  created_at_ = std::chrono::steady_clock::now();

  // Worker threads report per-task timings straight into the registry;
  // instruments were resolved above, so the hot path never takes the
  // registry lock.
  pool_ = std::make_unique<ThreadPool>(
      num_workers, [this](double queue_wait_s, double run_s) {
        tasks_total_->Add(1);
        queue_wait_hist_->Observe(queue_wait_s);
        task_run_hist_->Observe(run_s);
        busy_nanos_.fetch_add(static_cast<uint64_t>(run_s * 1e9),
                              std::memory_order_relaxed);  // order: monotonic busy-time accumulator; gauge readers tolerate lag
      });
}

void WorkerEngine::UpdateUtilization() const {
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - created_at_)
                            .count();
  if (wall_s <= 0.0) return;
  const double busy_s =
      static_cast<double>(busy_nanos_.load(std::memory_order_relaxed)) * 1e-9;  // order: sampled utilization read; exactness not required
  utilization_gauge_->Set(busy_s /
                          (wall_s * static_cast<double>(num_workers())));
}

void WorkerEngine::RecordInlineTask(
    std::chrono::steady_clock::time_point started_at) const {
  const double run_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - started_at)
                           .count();
  tasks_total_->Add(1);
  task_run_hist_->Observe(run_s);
  busy_nanos_.fetch_add(static_cast<uint64_t>(run_s * 1e9),
                        std::memory_order_relaxed);  // order: monotonic busy-time accumulator; gauge readers tolerate lag
  UpdateUtilization();
}

const WorkerEngine& DefaultEngine() {
  // Intentionally leaked: avoids shutdown-order issues with static dtors
  // (per style guide, static objects must be trivially destructible).
  static const WorkerEngine* engine = new WorkerEngine(WorkersFromEnv());
  return *engine;
}

}  // namespace ricd::engine
