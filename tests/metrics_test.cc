#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/report.h"

namespace ricd::obs {
namespace {

TEST(CounterTest, AddAndReset) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.counter");
  EXPECT_EQ(counter->Value(), 0u);
  counter->Add();
  counter->Add(41);
  EXPECT_EQ(counter->Value(), 42u);
  counter->Reset();
  EXPECT_EQ(counter->Value(), 0u);
}

TEST(CounterTest, FindOrCreateReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("test.same");
  Counter* b = registry.GetCounter("test.same");
  EXPECT_EQ(a, b);
  a->Add(3);
  EXPECT_EQ(b->Value(), 3u);
}

TEST(CounterTest, ConcurrentIncrementsFromThreadPool) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.concurrent");
  constexpr int kTasks = 64;
  constexpr int kIncrementsPerTask = 10000;
  ThreadPool pool(8);
  for (int t = 0; t < kTasks; ++t) {
    pool.Submit([counter] {
      for (int i = 0; i < kIncrementsPerTask; ++i) counter->Add();
    });
  }
  pool.Wait();
  EXPECT_EQ(counter->Value(),
            static_cast<uint64_t>(kTasks) * kIncrementsPerTask);
}

TEST(GaugeTest, SetOverwrites) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("test.gauge");
  EXPECT_DOUBLE_EQ(gauge->Value(), 0.0);
  gauge->Set(0.75);
  gauge->Set(0.25);
  EXPECT_DOUBLE_EQ(gauge->Value(), 0.25);
  gauge->Reset();
  EXPECT_DOUBLE_EQ(gauge->Value(), 0.0);
}

TEST(HistogramTest, PercentilesWithLinearBounds) {
  MetricsRegistry registry;
  // Boundaries 1..100: observation k lands in the bucket ending at k.
  std::vector<double> bounds;
  for (int i = 1; i <= 100; ++i) bounds.push_back(static_cast<double>(i));
  Histogram* hist = registry.GetHistogram("test.hist", bounds);
  for (int i = 1; i <= 100; ++i) hist->Observe(static_cast<double>(i) - 0.5);

  const HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_NEAR(snap.sum, 5000.0, 1e-9);
  EXPECT_NEAR(snap.Mean(), 50.0, 1e-9);
  // Each bucket holds exactly one observation, so quantiles are accurate
  // to within one bucket width.
  EXPECT_NEAR(snap.P50(), 50.0, 1.0);
  EXPECT_NEAR(snap.P95(), 95.0, 1.0);
  EXPECT_NEAR(snap.P99(), 99.0, 1.0);
}

TEST(HistogramTest, OverflowBucketInterpolatesUpToMax) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("test.overflow", {1.0, 2.0});
  hist->Observe(100.0);
  hist->Observe(200.0);
  const HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_DOUBLE_EQ(snap.min, 100.0);
  EXPECT_DOUBLE_EQ(snap.max, 200.0);
  // The overflow bucket spans [min, max] here: never the last bound 2.0,
  // which no observation came near.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 150.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 199.0);
}

TEST(HistogramTest, EmptyQuantileIsZero) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("test.empty", {1.0});
  EXPECT_DOUBLE_EQ(hist->Snapshot().Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(hist->Snapshot().Mean(), 0.0);
}

TEST(HistogramTest, QuantileEdgesOfSingleOccupiedBucket) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("test.edges", {1.0, 2.0, 4.0, 8.0});
  // All mass in the (2, 4] bucket, and all of it at 3.0.
  for (int i = 0; i < 10; ++i) hist->Observe(3.0);
  const HistogramSnapshot snap = hist->Snapshot();
  // The bucket's edges clamp to the observed range [3, 3], so every
  // quantile is the one value observed.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 3.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 3.0);
  // Out-of-range and NaN q clamp instead of reading out of bounds.
  EXPECT_DOUBLE_EQ(snap.Quantile(-3.0), 3.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(7.0), 3.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(std::nan("")), 3.0);
}

TEST(HistogramTest, QuantileFirstBucketInterpolatesFromMin) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("test.first", {1.0, 2.0});
  hist->Observe(0.5);
  hist->Observe(1.5);
  const HistogramSnapshot snap = hist->Snapshot();
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), 0.5);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 1.5);
}

TEST(HistogramTest, QuantileWithNoBoundsIsTheObservedValue) {
  MetricsRegistry registry;
  Histogram* hist =
      registry.GetHistogram("test.boundless", std::vector<double>{});
  hist->Observe(5.0);  // the only bucket is the overflow bucket
  const HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 5.0);
}

TEST(HistogramTest, ResetClearsTheObservedRange) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("test.range_reset", {1.0});
  hist->Observe(0.25);
  hist->Reset();
  EXPECT_DOUBLE_EQ(hist->Snapshot().min, 0.0);
  EXPECT_DOUBLE_EQ(hist->Snapshot().max, 0.0);
  hist->Observe(0.75);
  const HistogramSnapshot snap = hist->Snapshot();
  EXPECT_DOUBLE_EQ(snap.min, 0.75);
  EXPECT_DOUBLE_EQ(snap.max, 0.75);
  EXPECT_DOUBLE_EQ(snap.P50(), 0.75);
}

TEST(HistogramTest, DefaultBoundsCoverMicrosecondsToMinutes) {
  const std::vector<double> bounds = DefaultLatencyBounds();
  ASSERT_FALSE(bounds.empty());
  EXPECT_LE(bounds.front(), 1e-6);
  EXPECT_GE(bounds.back(), 60.0);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(HistogramTest, ConcurrentObserveKeepsCount) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("test.hist_mt");
  constexpr int kTasks = 32;
  constexpr int kObservationsPerTask = 2000;
  ThreadPool pool(8);
  for (int t = 0; t < kTasks; ++t) {
    pool.Submit([hist] {
      for (int i = 0; i < kObservationsPerTask; ++i) hist->Observe(1e-4);
    });
  }
  pool.Wait();
  const HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count,
            static_cast<uint64_t>(kTasks) * kObservationsPerTask);
  EXPECT_NEAR(snap.sum, snap.count * 1e-4, snap.count * 1e-4 * 1e-6);
}

TEST(RegistryTest, DisabledRegistryDropsWrites) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.disabled");
  Gauge* gauge = registry.GetGauge("test.disabled_gauge");
  Histogram* hist = registry.GetHistogram("test.disabled_hist");
  registry.set_enabled(false);
  counter->Add(5);
  gauge->Set(1.0);
  hist->Observe(0.5);
  EXPECT_EQ(counter->Value(), 0u);
  EXPECT_DOUBLE_EQ(gauge->Value(), 0.0);
  EXPECT_EQ(hist->Snapshot().count, 0u);
  registry.set_enabled(true);
  counter->Add(5);
  EXPECT_EQ(counter->Value(), 5u);
}

TEST(RegistryTest, SnapshotIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("b.counter")->Add(2);
  registry.GetCounter("a.counter")->Add(1);
  registry.GetGauge("z.gauge")->Set(3.5);
  registry.GetHistogram("m.hist")->Observe(0.001);

  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a.counter");
  EXPECT_EQ(snap.counters[0].value, 1u);
  EXPECT_EQ(snap.counters[1].name, "b.counter");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 3.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].hist.count, 1u);
}

TEST(RegistryTest, ResetZeroesButKeepsPointersValid) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.reset");
  counter->Add(7);
  registry.Reset();
  EXPECT_EQ(counter->Value(), 0u);
  counter->Add(2);
  EXPECT_EQ(registry.GetCounter("test.reset")->Value(), 2u);
}

TEST(ScopedTimerTest, FeedsHistogramOnDestruction) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("test.scoped");
  {
    ScopedTimer<Histogram> timer(hist);
    EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  }
  EXPECT_EQ(hist->Snapshot().count, 1u);
  {
    ScopedTimer<Histogram> timer(nullptr);  // null sink: query-only
    EXPECT_GE(timer.ElapsedMillis(), 0.0);
  }
  EXPECT_EQ(hist->Snapshot().count, 1u);
}

}  // namespace
}  // namespace ricd::obs
