#ifndef RICD_OBS_METRICS_H_
#define RICD_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace ricd::obs {

/// Number of independent atomic shards per instrument. Writer threads hash
/// to a shard so concurrent increments rarely share a cache line; readers
/// fold all shards. Must be a power of two.
inline constexpr size_t kMetricShards = 16;

namespace internal {

/// Stable per-thread shard index.
inline size_t ShardIndex() noexcept {
  thread_local const size_t index =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) &
      (kMetricShards - 1);
  return index;
}

}  // namespace internal

/// Monotonically increasing event count. Hot-path cost of Add() is one
/// relaxed atomic fetch_add on a thread-private shard (plus one relaxed
/// flag load), so it is safe to call from pruning inner loops and worker
/// threads.
class Counter {
 public:
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  void Add(uint64_t delta = 1) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;  // order: advisory enable flag; stale reads only delay the toggle
    shards_[internal::ShardIndex()].value.fetch_add(delta,
                                                    std::memory_order_relaxed);  // order: sharded stat counter; folds tolerate in-flight adds
  }

  /// Folds all shards. Concurrent Add() calls may or may not be visible.
  uint64_t Value() const noexcept {
    uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);  // order: sharded stat fold; concurrent adds may or may not land
    }
    return total;
  }

  void Reset() noexcept {
    for (auto& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);  // order: stat reset; callers quiesce writers between runs
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  std::array<Shard, kMetricShards> shards_{};
  const std::atomic<bool>* enabled_;
};

/// Last-written instantaneous value (worker utilization, queue depth, ...).
class Gauge {
 public:
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  void Set(double value) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;  // order: advisory enable flag; stale reads only delay the toggle
    value_.store(value, std::memory_order_relaxed);  // order: last-writer-wins gauge; no data published through it
  }

  double Value() const noexcept {
    return value_.load(std::memory_order_relaxed);  // order: sampled gauge read; exactness not required
  }

  void Reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }  // order: stat reset; callers quiesce writers between runs

 private:
  std::atomic<double> value_{0.0};
  const std::atomic<bool>* enabled_;
};

/// Read-side view of a histogram; percentiles are estimated by linear
/// interpolation inside the covering bucket, then clamped to the observed
/// [min, max] — so the first bucket never reports below the smallest
/// observation and the overflow bucket never reports above the largest.
struct HistogramSnapshot {
  std::vector<double> bounds;    // ascending upper bounds
  std::vector<uint64_t> buckets; // bounds.size() + 1 (last = overflow)
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // smallest observation (0 when count == 0)
  double max = 0.0;  // largest observation (0 when count == 0)

  /// Quantile estimate for q in [0, 1].
  double Quantile(double q) const;
  double P50() const { return Quantile(0.50); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }
  double Mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

/// Exponential latency boundaries in seconds: 1 µs doubling up to ~134 s.
std::vector<double> DefaultLatencyBounds();

/// Fixed-bucket histogram with sharded relaxed-atomic bucket counts.
/// Observe() is one binary search over the (immutable) boundary vector plus
/// two relaxed atomic adds on a thread-private shard, and a min/max update
/// on that shard when the value extends its range.
class Histogram {
 public:
  Histogram(std::vector<double> bounds, const std::atomic<bool>* enabled);

  void Observe(double value) noexcept;

  /// Test hook: Observe() calls made on the calling thread so far, on any
  /// histogram, enabled or not.
  static uint64_t ThreadObserves() noexcept { return thread_observes_; }

  HistogramSnapshot Snapshot() const;
  void Reset() noexcept;

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  struct alignas(64) Shard {
    std::vector<std::atomic<uint64_t>> counts;  // bounds + overflow
    std::atomic<double> sum{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  };

  static inline thread_local uint64_t thread_observes_ = 0;
  std::vector<double> bounds_;
  std::array<Shard, kMetricShards> shards_;
  const std::atomic<bool>* enabled_;
};

/// Read-side view of a whole registry, sorted by instrument name.
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    double value = 0.0;
  };
  struct HistogramEntry {
    std::string name;
    HistogramSnapshot hist;
  };

  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;
};

/// Process-wide named-instrument registry. Lookup takes a mutex; callers on
/// hot paths resolve instruments once (at construction / first use) and
/// keep the returned pointer, which stays valid for the registry's
/// lifetime. Naming convention: `module.stage.metric`, e.g.
/// `ricd.extraction.users_pruned_core`.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry used by all built-in instrumentation.
  static MetricsRegistry& Global();

  /// Find-or-create by name. For histograms the first registration fixes
  /// the bucket boundaries; later callers get the existing instrument.
  Counter* GetCounter(const std::string& name) RICD_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name) RICD_EXCLUDES(mu_);
  Histogram* GetHistogram(const std::string& name) RICD_EXCLUDES(mu_);
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds)
      RICD_EXCLUDES(mu_);

  /// When disabled, every Add/Set/Observe on instruments of this registry
  /// becomes a single relaxed load (used by the overhead benchmarks and to
  /// silence instrumentation entirely).
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);  // order: advisory enable flag; instruments re-read it on every op
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }  // order: advisory flag read; exactness not required

  MetricsSnapshot Snapshot() const RICD_EXCLUDES(mu_);

  /// Zeroes every instrument but keeps registrations (and pointers) valid.
  void Reset() RICD_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::atomic<bool> enabled_{true};
  std::map<std::string, std::unique_ptr<Counter>> counters_ RICD_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ RICD_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      RICD_GUARDED_BY(mu_);
};

}  // namespace ricd::obs

#endif  // RICD_OBS_METRICS_H_
