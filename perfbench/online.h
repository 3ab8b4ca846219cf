#ifndef RICD_PERFBENCH_ONLINE_H_
#define RICD_PERFBENCH_ONLINE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/result.h"
#include "scenario/materialize.h"
#include "scenario/spec.h"
#include "serve/detection_service.h"
#include "table/click_table.h"

namespace ricd::perfbench {

/// A materialized online scenario split at the middle of its arrival
/// schedule: the first half bootstraps the service, the rest is streamed.
struct OnlineInputs {
  gen::Scenario scenario;
  std::vector<scenario::ArrivalEvent> schedule;
  size_t half = 0;
  table::ClickTable bootstrap;  // schedule[0, half) in arrival order

  table::ClickRecord StreamRow(size_t i) const {
    return scenario.table.row(schedule[half + i].row);
  }
  uint64_t StreamTs(size_t i) const { return schedule[half + i].ts; }
  size_t stream_rows() const { return schedule.size() - half; }
};

Result<OnlineInputs> MaterializeOnline(const scenario::ScenarioSpec& spec);

/// Observes publishes through DetectionService::Verdicts() from the
/// generator thread: a new epoch is a publish, stamped when first seen.
/// SleepUntil polls every kPollSeconds while it waits, so a publish is seen
/// at most that late.
class PublishWatch {
 public:
  static constexpr double kPollSeconds = 0.0005;

  struct Publish {
    Clock::time_point seen;
    uint64_t applied = 0;  // VerdictSnapshot::stats.applied
  };

  explicit PublishWatch(const serve::DetectionService* service);

  void Poll();
  void SleepUntil(Clock::time_point deadline);
  /// Polls until a publish covers `clicks` applied clicks or `timeout_s`
  /// passes; false on timeout.
  bool WaitForApplied(uint64_t clicks, double timeout_s);

  const std::vector<Publish>& publishes() const { return publishes_; }

 private:
  const serve::DetectionService* service_;
  uint64_t epoch_ = 0;
  uint64_t applied_ = 0;
  std::vector<Publish> publishes_;
};

/// Click-to-verdict freshness of the accepted clicks: `due[i]` is the due
/// time of the i-th accepted click (queue order), covered by the first
/// publish whose applied count reaches i + 1. Returns the figure for the
/// covered prefix of `due`.
std::vector<double> Freshness(const std::vector<Clock::time_point>& due,
                              const std::vector<PublishWatch::Publish>& seen);

/// The `q`-quantile of the freshness figures `fresh` (due times `due`),
/// taken per 2-s window of due times with the median over windows returned,
/// so a host stall in part of the run moves only a few windows.
double FreshnessQuantile(const std::vector<Clock::time_point>& due,
                         const std::vector<double>& fresh, double q);

/// The publish-side per-layer figures shared by both online workloads:
/// publish count, clicks per publish, median gap between publishes and the
/// freshness p90.
void AddPublishMetrics(const std::vector<PublishWatch::Publish>& seen,
                       uint64_t clicks,
                       const std::vector<Clock::time_point>& due,
                       const std::vector<double>& fresh, Report* report);

/// Output check of an online workload after its timed phase: Drain, wait
/// out any pipelined rebuild, ForceRebuild. A replay ClickWindow with the
/// same options then appends the bootstrap rows at event-second 0, as Start
/// does, then `streamed` with their event-seconds; its appended, retained
/// and evicted counts must match the service's, and the published flagged
/// users, items and risks must equal an offline RicdFramework::Run over the
/// rows it retains: the WindowedDifferentialTest oracle. `*retained`
/// receives those rows.
Status CheckAgainstOffline(
    serve::DetectionService* service, const serve::ServeOptions& options,
    const table::ClickTable& bootstrap,
    const std::vector<std::pair<table::ClickRecord, uint64_t>>& streamed,
    table::ClickTable* retained);

/// Median seconds per call of `calls(b, block)`, invoked as `blocks` blocks
/// of `block` calls with one `name` span per block, so no sub-microsecond
/// call is timed on its own.
template <typename Fn>
double BlockSeconds(Tracer* tracer, const char* name, int blocks, int block,
                    Fn&& calls) {
  std::vector<double> per_call;
  for (int b = 0; b < blocks; ++b) {
    Tracer::Span span(tracer, name);
    calls(b, block);
    per_call.push_back(span.End() / block);
  }
  return Median(per_call);
}

}  // namespace ricd::perfbench

#endif  // RICD_PERFBENCH_ONLINE_H_
