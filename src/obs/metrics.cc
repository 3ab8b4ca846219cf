#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ricd::obs {

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  if (std::isnan(q)) q = 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // target rank in [0, count]; q=0 resolves to the lower edge of the first
  // occupied bucket, q=1 to the upper edge of the last occupied bucket, and
  // anything in between interpolates linearly inside the covering bucket.
  // Bucket edges are clamped to the observed [min, max], which gives the
  // first bucket a lower edge and the overflow bucket an upper edge.
  const double target = q * static_cast<double>(count);
  double estimate = max;  // a racy all-empty fold falls back to the max
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) < target) continue;
    const double lower = i == 0 ? min : std::max(min, bounds[i - 1]);
    const double upper = i == bounds.size() ? max : std::min(max, bounds[i]);
    const double before = static_cast<double>(cumulative - in_bucket);
    double frac = (target - before) / static_cast<double>(in_bucket);
    // Clamp against float drift (count folded from sharded atomics can
    // disagree slightly with the bucket sums observed mid-write).
    frac = std::min(1.0, std::max(0.0, frac));
    estimate = lower + frac * (upper - lower);
    break;
  }
  // A racy fold can still pair a bucket with a stale range.
  return std::min(max, std::max(min, estimate));
}

std::vector<double> DefaultLatencyBounds() {
  // 1 µs, 2 µs, 4 µs, ... doubling 28 times reaches ~134 s, which covers
  // everything from a single intersection kernel to a large-scale
  // end-to-end detection run.
  std::vector<double> bounds;
  bounds.reserve(28);
  double b = 1e-6;
  for (int i = 0; i < 28; ++i) {
    bounds.push_back(b);
    b *= 2.0;
  }
  return bounds;
}

Histogram::Histogram(std::vector<double> bounds,
                     const std::atomic<bool>* enabled)
    : bounds_(std::move(bounds)), enabled_(enabled) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  for (auto& shard : shards_) {
    shard.counts = std::vector<std::atomic<uint64_t>>(bounds_.size() + 1);
  }
}

void Histogram::Observe(double value) noexcept {
  ++thread_observes_;
  if (!enabled_->load(std::memory_order_relaxed)) return;  // order: advisory enable flag; stale reads only delay the toggle
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  Shard& shard = shards_[internal::ShardIndex()];
  shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);  // order: sharded histogram bucket; snapshot folds tolerate lag
  shard.sum.fetch_add(value, std::memory_order_relaxed);  // order: sharded histogram sum; snapshot folds tolerate lag
  double lo = shard.min.load(std::memory_order_relaxed);  // order: sharded range bound; snapshot folds tolerate lag
  while (value < lo &&
         !shard.min.compare_exchange_weak(lo, value, std::memory_order_relaxed)) {  // order: monotone min; no data published through it
  }
  double hi = shard.max.load(std::memory_order_relaxed);  // order: sharded range bound; snapshot folds tolerate lag
  while (value > hi &&
         !shard.max.compare_exchange_weak(hi, value, std::memory_order_relaxed)) {  // order: monotone max; no data published through it
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.buckets.assign(bounds_.size() + 1, 0);
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto& shard : shards_) {
    for (size_t i = 0; i < shard.counts.size(); ++i) {
      snap.buckets[i] += shard.counts[i].load(std::memory_order_relaxed);  // order: sharded stat fold; concurrent observes may or may not land
    }
    snap.sum += shard.sum.load(std::memory_order_relaxed);  // order: sharded stat fold; concurrent observes may or may not land
    lo = std::min(lo, shard.min.load(std::memory_order_relaxed));  // order: sharded stat fold; concurrent observes may or may not land
    hi = std::max(hi, shard.max.load(std::memory_order_relaxed));  // order: sharded stat fold; concurrent observes may or may not land
  }
  for (const uint64_t b : snap.buckets) snap.count += b;
  if (lo <= hi) {
    snap.min = lo;
    snap.max = hi;
  }
  return snap;
}

void Histogram::Reset() noexcept {
  for (auto& shard : shards_) {
    for (auto& c : shard.counts) c.store(0, std::memory_order_relaxed);  // order: stat reset; callers quiesce writers between runs
    shard.sum.store(0.0, std::memory_order_relaxed);  // order: stat reset; callers quiesce writers between runs
    shard.min.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);  // order: stat reset; callers quiesce writers between runs
    shard.max.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);  // order: stat reset; callers quiesce writers between runs
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  // Intentionally leaked: instrumentation may fire from worker threads
  // during static destruction.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  const MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>(&enabled_);
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  const MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>(&enabled_);
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  return GetHistogram(name, DefaultLatencyBounds());
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  const MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(bounds), &enabled_);
  }
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  const MutexLock lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back({name, counter->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back({name, gauge->Value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    snap.histograms.push_back({name, hist->Snapshot()});
  }
  return snap;
}

void MetricsRegistry::Reset() {
  const MutexLock lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
}

}  // namespace ricd::obs
