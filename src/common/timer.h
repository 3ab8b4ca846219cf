#ifndef RICD_COMMON_TIMER_H_
#define RICD_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>
#include <string>

namespace ricd {

/// Monotonic wall-clock stopwatch used by the benchmark harness to report
/// elapsed time of detection stages.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  /// Resets the start point to now.
  void Restart() { start_ = Now(); }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Now() - start_).count();
  }

  /// Milliseconds elapsed since construction or the last Restart().
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

  /// Test hook: clock reads taken through any WallTimer on the calling
  /// thread so far (construction, Restart and each Elapsed* call read once).
  static uint64_t ThreadClockReads() { return thread_clock_reads_; }

 private:
  using Clock = std::chrono::steady_clock;

  static Clock::time_point Now() {
    ++thread_clock_reads_;
    return Clock::now();
  }

  static inline thread_local uint64_t thread_clock_reads_ = 0;
  Clock::time_point start_;
};

/// Feeds the elapsed wall time of a scope into a histogram-like sink
/// (anything with Observe(double seconds) — in practice obs::Histogram) at
/// destruction. Templated so `common` stays independent of `obs`:
///
///   obs::Histogram* hist = registry.GetHistogram("bench.stage_seconds");
///   { ScopedTimer timer(hist); Stage(); }
///
/// A null sink disables recording; Elapsed* queries work either way.
template <typename HistogramT>
class ScopedTimer {
 public:
  explicit ScopedTimer(HistogramT* sink) : sink_(sink) {}
  ~ScopedTimer() {
    if (sink_ != nullptr) sink_->Observe(timer_.ElapsedSeconds());
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  double ElapsedSeconds() const { return timer_.ElapsedSeconds(); }
  double ElapsedMillis() const { return timer_.ElapsedMillis(); }

 private:
  WallTimer timer_;
  HistogramT* sink_;
};

}  // namespace ricd

#endif  // RICD_COMMON_TIMER_H_
