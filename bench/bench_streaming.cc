// Streaming bench (extension; windowed continuous detection): sustained
// ingest of the regime_shift arrival schedule through a retention-bounded
// DetectionService, raw ClickWindow append cost with eviction on vs off,
// and ingest/query latency while another thread re-runs detection. The
// acceptance claims this bench carries: retained rows stay under the
// standing bound (max_clicks + segment_clicks) while eviction reclaims a
// measurable share of the appended stream, and ingest is never blocked by
// a detection run.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench/bench_common.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "scenario/registry.h"
#include "serve/detection_service.h"
#include "window/click_window.h"

namespace ricd::bench {
namespace {

/// Streams every scheduled arrival into the service, retrying rejected
/// pushes (the queue is the backpressure surface, not a drop surface).
/// Returns the number of retry yields taken, as a congestion signal.
uint64_t StreamSchedule(serve::DetectionService& service,
                        const table::ClickTable& rows,
                        const std::vector<scenario::ArrivalEvent>& schedule) {
  uint64_t retries = 0;
  for (const scenario::ArrivalEvent& ev : schedule) {
    const table::ClickRecord rec = rows.row(ev.row);
    Status pushed = service.IngestClickAt(rec, ev.ts);
    while (!pushed.ok() && pushed.code() == StatusCode::kResourceExhausted) {
      ++retries;
      std::this_thread::yield();
      pushed = service.IngestClickAt(rec, ev.ts);
    }
    RICD_CHECK(pushed.ok()) << pushed;
  }
  return retries;
}

/// The bench's workload defaults to the regime_shift preset (organic
/// diet with a frozen-clock attack burst mid-trace — the shape the window
/// subsystem exists for); RICD_SCENARIO still overrides it.
scenario::ScenarioSpec StreamingSpec(gen::ScenarioScale scale, uint64_t seed) {
  const char* env = std::getenv("RICD_SCENARIO");
  auto spec =
      scenario::LoadScenario(env != nullptr && env[0] != '\0' ? env
                                                              : "regime_shift");
  RICD_CHECK(spec.ok()) << spec.status();
  spec->scale = scale;
  spec->seed = seed;
  return std::move(spec).value();
}

int Run() {
  PrintHeader("Streaming: windowed ingest, eviction cost, detection overlap",
              "extension; Section VII deployment discussion");

  const auto scale = ScaleFromEnv(gen::ScenarioScale::kTiny);
  const uint64_t seed = SeedFromEnv(42);
  BenchWorkload workload = GenerateWorkload(StreamingSpec(scale, seed));
  const table::ClickTable& rows = workload.scenario.table;
  RICD_CHECK(rows.num_rows() > 0);

  const std::vector<scenario::ArrivalEvent> schedule =
      scenario::ArrivalSchedule(workload.spec, rows);
  RICD_CHECK(schedule.size() == rows.num_rows());
  std::printf("scenario '%s': arrival pattern %s over %zu rows\n\n",
              workload.spec.name.c_str(),
              scenario::ArrivalPatternName(workload.spec.arrival),
              rows.num_rows());

  auto& registry = obs::MetricsRegistry::Global();

  // Retention sized so the trace overflows the window several times over:
  // sustained ingest must demonstrate bounded memory, not just survive.
  const uint64_t kSegmentClicks = 512;
  const uint64_t kMaxClicks =
      std::max<uint64_t>(1024, rows.num_rows() / 4);

  // --- sustained ingest: full trace through a windowed service ----------
  {
    serve::ServeOptions options;
    options.framework.params = PaperDefaultParams();
    options.ingest_batch = 256;
    options.max_batch_delay_ms = 2;
    options.window.max_clicks = kMaxClicks;
    options.window.segment_clicks = kSegmentClicks;
    serve::DetectionService service(options);
    const double bootstrap_s = TimedStage("bench.stream.bootstrap", [&] {
      const Status started = service.Start(table::ClickTable());
      RICD_CHECK(started.ok()) << started;
    });

    WallTimer ingest_timer;
    const uint64_t retries = StreamSchedule(service, rows, schedule);
    {
      const Status drained = service.Drain();
      RICD_CHECK(drained.ok()) << drained;
    }
    const double ingest_s = ingest_timer.ElapsedSeconds();
    const double qps = ingest_s > 0.0
                           ? static_cast<double>(schedule.size()) / ingest_s
                           : 0.0;

    const window::WindowStats stats = service.window_stats();
    // Bounded memory: the retained set never exceeds the standing bound,
    // and eviction reclaimed a measurable share of the appended stream.
    RICD_CHECK(stats.appended_rows == schedule.size());
    RICD_CHECK(stats.retained_rows <= kMaxClicks + kSegmentClicks)
        << stats.retained_rows << " retained rows exceed the standing bound";
    RICD_CHECK(stats.evicted_rows > 0)
        << "retention evicted nothing; the workload never filled the window";
    RICD_CHECK(stats.appended_rows == stats.retained_rows + stats.evicted_rows);

    registry.GetGauge("bench.stream.ingest_qps")->Set(qps);
    std::printf(
        "sustained ingest: bootstrap %.3f s; %zu rows in %.3f s -> %.0f "
        "rows/s (%llu backpressure retries)\n",
        bootstrap_s, schedule.size(), ingest_s, qps,
        static_cast<unsigned long long>(retries));
    std::printf(
        "window: retained=%llu (bound %llu) evicted=%llu rows across %llu "
        "segments; clock high %llu\n\n",
        static_cast<unsigned long long>(stats.retained_rows),
        static_cast<unsigned long long>(kMaxClicks + kSegmentClicks),
        static_cast<unsigned long long>(stats.evicted_rows),
        static_cast<unsigned long long>(stats.evicted_segments),
        static_cast<unsigned long long>(stats.clock_high));

    const Status shutdown = service.Shutdown();
    RICD_CHECK(shutdown.ok()) << shutdown;
  }

  // --- eviction cost: raw window appends, bounded vs unbounded ----------
  // Same trace into two bare ClickWindows isolates what retention itself
  // costs per append (seal + evict bookkeeping, no detection in the loop).
  {
    const auto drive = [&](const window::WindowOptions& options) -> double {
      window::ClickWindow w(options);
      WallTimer timer;
      for (const scenario::ArrivalEvent& ev : schedule) {
        w.Append(rows.row(ev.row), ev.ts);
      }
      const double s = timer.ElapsedSeconds();
      const window::WindowStats stats = w.stats();
      std::printf(
          "  %-9s append %zu rows in %.3f s; retained=%llu evicted=%llu "
          "(%llu segments sealed)\n",
          options.max_clicks == 0 ? "unbounded" : "bounded", schedule.size(),
          s, static_cast<unsigned long long>(stats.retained_rows),
          static_cast<unsigned long long>(stats.evicted_rows),
          static_cast<unsigned long long>(stats.sealed_segments));
      return s > 0.0 ? static_cast<double>(schedule.size()) / s : 0.0;
    };
    std::printf("eviction cost (segment_clicks=%llu):\n",
                static_cast<unsigned long long>(kSegmentClicks));
    window::WindowOptions bounded;
    bounded.max_clicks = std::max<uint64_t>(1024, rows.num_rows() / 8);
    bounded.segment_clicks = kSegmentClicks;
    window::WindowOptions unbounded;
    unbounded.segment_clicks = kSegmentClicks;
    const double bounded_rps = drive(bounded);
    const double unbounded_rps = drive(unbounded);
    registry.GetGauge("bench.stream.evict.bounded_rows_per_second")
        ->Set(bounded_rps);
    registry.GetGauge("bench.stream.evict.unbounded_rows_per_second")
        ->Set(unbounded_rps);
    std::printf("  bounded %.0f rows/s vs unbounded %.0f rows/s\n\n",
                bounded_rps, unbounded_rps);
  }

  // --- detection overlap: ingest/query latency while detection runs -----
  // A second thread re-runs detection over the retained window back to back
  // (ForceRebuild, the same refresh every publish runs); the claim is that
  // neither ingest acks nor verdict queries ever wait on it. Each push waits
  // until a run is in flight and counts as acked during that run when the
  // run is still unfinished after the push returns, and the whole schedule
  // is streamed: how long a run takes changes how many runs the stream
  // overlaps, not whether pushes land inside one.
  {
    serve::ServeOptions options;
    options.framework.params = PaperDefaultParams();
    options.ingest_batch = 256;
    options.max_batch_delay_ms = 2;
    options.window.max_clicks = kMaxClicks;
    options.window.segment_clicks = kSegmentClicks;
    serve::DetectionService service(options);
    {
      const Status started = service.Start(rows);
      RICD_CHECK(started.ok()) << started;
    }
    obs::Histogram* ingest_hist =
        registry.GetHistogram("bench.stream.ingest_during_rebuild.seconds");
    obs::Histogram* query_hist =
        registry.GetHistogram("bench.stream.query_during_rebuild.seconds");

    // Runs begun and runs finished; runs finish in the order they begin.
    std::atomic<bool> streaming{true};
    std::atomic<uint64_t> runs_begun{0};
    std::atomic<uint64_t> runs_finished{0};
    ThreadPool rebuilder(1);
    rebuilder.Submit([&] {
      while (streaming.load(std::memory_order_acquire)) {
        runs_begun.fetch_add(1, std::memory_order_acq_rel);
        const Status rebuilt = service.ForceRebuild();
        runs_finished.fetch_add(1, std::memory_order_acq_rel);
        RICD_CHECK(rebuilt.ok()) << rebuilt;
      }
    });
    uint64_t acked_during_rebuild = 0;
    uint64_t queried_during_rebuild = 0;
    for (size_t i = 0; i < schedule.size(); ++i) {
      const scenario::ArrivalEvent& ev = schedule[i];
      // Run number `run` has begun; it is in flight while fewer than `run`
      // runs have finished.
      uint64_t run = runs_begun.load(std::memory_order_acquire);
      while (runs_finished.load(std::memory_order_acquire) >= run) {
        std::this_thread::yield();
        run = runs_begun.load(std::memory_order_acquire);
      }
      {
        WallTimer timer;
        const Status pushed =
            service.IngestClickAt(rows.row(ev.row), ev.ts);
        ingest_hist->Observe(timer.ElapsedSeconds());
        if (pushed.ok()) {
          if (runs_finished.load(std::memory_order_acquire) < run) {
            ++acked_during_rebuild;
          }
        } else {
          RICD_CHECK(pushed.code() == StatusCode::kResourceExhausted)
              << pushed;
          std::this_thread::yield();
        }
      }
      if (i % 4 == 0) {
        WallTimer timer;
        (void)service.IsFlaggedUser(rows.user(ev.row));
        query_hist->Observe(timer.ElapsedSeconds());
        ++queried_during_rebuild;
      }
    }
    streaming.store(false, std::memory_order_release);
    rebuilder.Wait();
    // Ingest was never blocked: real traffic was acked mid-detection.
    RICD_CHECK(acked_during_rebuild > 0)
        << "no ingest acked while detection was running";
    {
      const Status drained = service.Drain();
      RICD_CHECK(drained.ok()) << drained;
    }
    const obs::HistogramSnapshot in = ingest_hist->Snapshot();
    const obs::HistogramSnapshot qu = query_hist->Snapshot();
    std::printf(
        "detection overlap: %llu ingests acked, %llu queries answered beside "
        "%llu back-to-back detection runs\n",
        static_cast<unsigned long long>(acked_during_rebuild),
        static_cast<unsigned long long>(queried_during_rebuild),
        static_cast<unsigned long long>(runs_finished.load()));
    std::printf("  ingest  p50 %.1f us  p99 %.1f us\n", in.P50() * 1e6,
                in.P99() * 1e6);
    std::printf("  query   p50 %.1f us  p99 %.1f us\n", qu.P50() * 1e6,
                qu.P99() * 1e6);
    const Status shutdown = service.Shutdown();
    RICD_CHECK(shutdown.ok()) << shutdown;
  }

  FinishBench("bench_streaming", DescribeWorkload(workload));
  return 0;
}

}  // namespace
}  // namespace ricd::bench

int main() { return ricd::bench::Run(); }
