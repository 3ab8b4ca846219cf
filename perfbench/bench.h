#ifndef RICD_PERFBENCH_BENCH_H_
#define RICD_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "gen/scenario.h"

namespace ricd::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command line of one run: `--workload <name> --seed <n> --seconds <s>
/// --trace <0|1>`, plus `--scale tiny` for the smoke self-test and
/// `--spans <path>` for where a traced run writes its spans.
struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  /// Overrides every workload's scenario scale (smoke runs use tiny).
  bool tiny = false;
  std::string spans_path;
};

/// Exact `q`-quantile of `values`, q in [0, 1], interpolating linearly
/// between the two closest ranks.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Median over consecutive `window_s`-second windows of each window's
/// `q`-quantile. `at[i]` is sample i's time in seconds, non-decreasing.
/// A host stall that hits part of a run moves a few windows, not the
/// median across them.
double WindowedQuantile(const std::vector<double>& at,
                        const std::vector<double>& values, double window_s,
                        double q);

/// One named metric with its unit, in emission order.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Span recorder for traced runs: name, start, end and parent, kept in
/// memory and written out when the run ends. Spans are opened and closed on
/// one thread (the workload's main thread) in LIFO order. A disabled tracer
/// records nothing, but its spans still measure their own duration, so a
/// workload times a layer the same way whether or not the run is traced.
class Tracer {
 public:
  struct Record {
    std::string name;
    double start = 0;  // seconds since the tracer was created
    double end = 0;
    int parent = -1;  // index into records(), -1 for a root span
  };

  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span() { End(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Closes the span early; returns its duration in seconds.
    double End();

   private:
    Tracer* tracer_;
    int index_ = -1;
    int saved_parent_ = -1;
    Clock::time_point start_;
    double seconds_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  const std::vector<Record>& records() const { return records_; }

  /// Sum of the durations of every recorded span called `name` that began
  /// at or after `since` (seconds since creation).
  double Total(const std::string& name, double since = 0) const;

  /// Seconds since the tracer was created.
  double Now() const { return SecondsBetween(origin_, Clock::now()); }

  /// Writes every span as one JSON array of
  /// {"name","start_s","end_s","parent"} objects.
  Status WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  int current_ = -1;
  std::vector<Record> records_;
};

/// What a workload hands back to main: its metrics plus the operation
/// accounting behind `ok_frac`, `attempted` and `failed`.
struct Report {
  std::vector<Metric> metrics;
  /// Diagnostic lines printed before the result line (never compared).
  std::vector<std::string> notes;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
  void Note(std::string line) { notes.push_back(std::move(line)); }
  /// Counts one operation; `ok` false marks it failed.
  void Op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// Counts an output check as one operation and notes why it failed.
  void Check(const Status& status, const char* what);
};

/// Peak resident set of this process so far, MiB (getrusage ru_maxrss).
double PeakRssMb();

/// Aggregate steal time of the host so far (the steal column of the `cpu`
/// line of /proc/stat), seconds; 0 when /proc/stat is unreadable.
double HostStealSeconds();

/// A fixed memory-bound loop (dependent loads over a 64 MiB random cycle)
/// of about half a second; its wall time tracks shared-cache and memory
/// contention on the host.
double MemoryCalibrationSeconds();

/// Current value of an existing obs counter.
uint64_t CounterValue(const char* name);

/// Scale of a workload's scenario, honouring the smoke override.
inline gen::ScenarioScale ScaleFor(const RunOptions& options,
                                   gen::ScenarioScale scale) {
  return options.tiny ? gen::ScenarioScale::kTiny : scale;
}

/// Workload entry points. Each materializes its own inputs from
/// `options.seed`, measures for `options.seconds`, checks the program's
/// outputs (feeding `report->attempted/failed`) and fills `report->metrics`
/// with the end-to-end metrics, or with the per-layer metrics when
/// `options.trace` is set.
Status RunOfflineMedium(const RunOptions& options, Tracer* tracer,
                        Report* report);
Status RunStreamWindow(const RunOptions& options, Tracer* tracer,
                       Report* report);
Status RunServeMixed(const RunOptions& options, Tracer* tracer,
                     Report* report);

}  // namespace ricd::perfbench

#endif  // RICD_PERFBENCH_BENCH_H_
