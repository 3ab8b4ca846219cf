// stream_window: the continuous service, writes only. The `regime_shift`
// preset at small scale; the first half of its ArrivalSchedule bootstraps
// the service, the rest streams in-process through IngestClickAt at an
// open-loop 2,000 clicks/s with the schedule's event-seconds. Retention is
// bounded at 49,152 clicks so eviction and evict-triggered pipelined
// rebuilds run; the engine is pinned to 1 worker by main(). TCP is idle.
// verdict_latency_s is the click-to-verdict freshness p50.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "detect.h"
#include "obs/metric_names.h"
#include "online.h"
#include "ricd/framework.h"
#include "ricd/incremental.h"
#include "scenario/registry.h"
#include "serve/detection_service.h"
#include "window/click_window.h"

namespace ricd::perfbench {
namespace {

constexpr int kSetups = 9;
constexpr double kClicksPerSecond = 2000;
constexpr uint64_t kWindowClicks = 49152;
constexpr size_t kReplayBatch = 2048;  // ServeOptions::ingest_batch
constexpr double kTailTimeoutSeconds = 60;

serve::ServeOptions StreamOptions() {
  serve::ServeOptions options;
  options.window.max_clicks = kWindowClicks;
  return options;
}

struct ReplayFigures {
  double total_s = 0;
  double bootstrap_s = 0;
  std::vector<double> append_s, ingest_s, materialize_s;
  uint64_t region_edges = 0;
  uint64_t standing_edges = 0;
  uint64_t rows = 0;
};

/// Single-threaded replay of the streamed rows through the window and the
/// incremental detector in service-sized batches, one span per call block.
/// Run once untraced and once traced, the two totals give the tracing
/// overhead.
Result<ReplayFigures> Replay(const OnlineInputs& in, size_t streamed,
                             const serve::ServeOptions& options,
                             Tracer* tracer) {
  ReplayFigures f;
  Tracer::Span root(tracer, "stream.replay");
  window::ClickWindow window(options.window);
  {
    Tracer::Span span(tracer, "window.append");
    for (size_t i = 0; i < in.bootstrap.num_rows(); ++i) {
      window.Append(in.bootstrap.row(i), 0);
    }
  }
  core::IncrementalRicd detector(options.framework);
  {
    Tracer::Span span(tracer, "ricd.incremental.bootstrap");
    RICD_RETURN_IF_ERROR(detector.Bootstrap(in.bootstrap));
    f.bootstrap_s = span.End();
  }
  for (size_t begin = 0; begin < streamed; begin += kReplayBatch) {
    const size_t end = std::min(streamed, begin + kReplayBatch);
    table::ClickTable batch;
    batch.Reserve(end - begin);
    for (size_t i = begin; i < end; ++i) batch.Append(in.StreamRow(i));
    {
      Tracer::Span span(tracer, "window.append");
      for (size_t i = begin; i < end; ++i) {
        window.Append(in.StreamRow(i), in.StreamTs(i));
      }
      f.append_s.push_back(span.End());
    }
    {
      Tracer::Span span(tracer, "ricd.incremental.ingest");
      RICD_ASSIGN_OR_RETURN(const core::IncrementalUpdate update,
                            detector.Ingest(batch));
      f.ingest_s.push_back(span.End());
      f.region_edges += update.region_edges;
      f.standing_edges += detector.num_edges();
    }
    {
      Tracer::Span span(tracer, "window.materialize");
      const table::ClickTable retained = window.MaterializeRetained();
      f.materialize_s.push_back(span.End());
    }
    f.rows += end - begin;
  }
  f.total_s = root.End();
  return f;
}

}  // namespace

Status RunStreamWindow(const RunOptions& options, Tracer* tracer,
                       Report* report) {
  Result<scenario::ScenarioSpec> spec = scenario::FindScenario("regime_shift");
  RICD_RETURN_IF_ERROR(spec.status());
  spec->scale = ScaleFor(options, gen::ScenarioScale::kSmall);
  spec->seed = options.seed;
  const serve::ServeOptions serve_options = StreamOptions();

  // Set-up: materialize + DetectionService::Start (bootstrap and first
  // publish), repeated; the last one is kept and measured.
  std::vector<double> setups, materialize, start;
  OnlineInputs in;
  std::unique_ptr<serve::DetectionService> service;
  for (int i = 0; i < kSetups; ++i) {
    if (service != nullptr) RICD_RETURN_IF_ERROR(service->Shutdown());
    service.reset();
    in = OnlineInputs();
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Span span(tracer, "gen.materialize");
      RICD_ASSIGN_OR_RETURN(in, MaterializeOnline(*spec));
      materialize.push_back(span.End());
    }
    {
      Tracer::Span span(tracer, "serve.start");
      service = std::make_unique<serve::DetectionService>(serve_options);
      RICD_RETURN_IF_ERROR(service->Start(in.bootstrap));
      start.push_back(span.End());
    }
    setups.push_back(SecondsBetween(t0, Clock::now()));
  }

  // Timed phase: open-loop schedule, one click due every 0.5 ms; the
  // generator sleeps until each due time and watches publishes meanwhile.
  const size_t offered = std::min(
      in.stream_rows(), static_cast<size_t>(options.seconds * kClicksPerSecond));
  std::vector<Clock::time_point> due;
  std::vector<double> late;
  std::vector<std::pair<table::ClickRecord, uint64_t>> accepted;
  due.reserve(offered);
  late.reserve(offered);
  accepted.reserve(offered);
  const uint64_t rebuilds0 = CounterValue(obs::metric_names::kServeRebuilds);
  const uint64_t batches0 = CounterValue(obs::metric_names::kServeIngestBatches);
  const uint64_t rejected0 =
      CounterValue(obs::metric_names::kServeIngestRejected);
  PublishWatch watch(service.get());
  bool covered = false;
  {
    Tracer::Span span(tracer, "stream.timed_phase");
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
    for (size_t i = 0; i < offered; ++i) {
      const Clock::time_point due_at =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(i / kClicksPerSecond));
      watch.SleepUntil(due_at);
      late.push_back(SecondsBetween(due_at, Clock::now()));
      const table::ClickRecord record = in.StreamRow(i);
      const Status pushed = service->IngestClickAt(record, in.StreamTs(i));
      report->Op(pushed.ok());
      if (pushed.ok()) {
        due.push_back(due_at);
        accepted.emplace_back(record, in.StreamTs(i));
      }
      watch.Poll();
    }
    covered = watch.WaitForApplied(accepted.size(), kTailTimeoutSeconds);
  }
  report->Check(covered ? Status::Ok()
                        : Status::DeadlineExceeded("clicks never published"),
                "every accepted click reaches a publish");
  const uint64_t rebuilds =
      CounterValue(obs::metric_names::kServeRebuilds) - rebuilds0;
  const uint64_t batches =
      CounterValue(obs::metric_names::kServeIngestBatches) - batches0;
  const uint64_t rejected =
      CounterValue(obs::metric_names::kServeIngestRejected) - rejected0;

  table::ClickTable retained;
  {
    Tracer::Span span(tracer, "stream.check");
    report->Check(CheckAgainstOffline(service.get(), serve_options,
                                      in.bootstrap, accepted, &retained),
                  "online verdicts equal offline Run over retained rows");
  }
  const std::vector<double> fresh = Freshness(due, watch.publishes());
  char line[192];
  std::snprintf(line, sizeof(line),
                "freshness: %zu of %zu stream rows over %zu publishes, %llu "
                "rebuilds, %zu flagged users, %zu rows retained",
                fresh.size(), in.stream_rows(), watch.publishes().size(),
                static_cast<unsigned long long>(rebuilds),
                service->Verdicts()->flagged_users.size(), retained.num_rows());
  report->Note(line);

  if (!options.trace) {
    report->Add("setup_s", "s", Median(setups));
    report->Add("verdict_latency_s", "s",
                FreshnessQuantile(due, fresh, 0.5));
    return service->Shutdown();
  }

  // Traced extras, after the output check so they cannot disturb it.
  Tracer quiet(false);
  RICD_ASSIGN_OR_RETURN(const ReplayFigures untraced,
                        Replay(in, accepted.size(), serve_options, &quiet));
  RICD_ASSIGN_OR_RETURN(const ReplayFigures traced,
                        Replay(in, accepted.size(), serve_options, tracer));
  const double acquire = BlockSeconds(
      tracer, "serve.verdicts_acquire", 9, 1000, [&](int, int n) {
        for (int i = 0; i < n; ++i) service->Verdicts();
      });
  const uint64_t last_ts = accepted.empty() ? 0 : accepted.back().second;
  const double ingest_call = BlockSeconds(
      tracer, "serve.ingest_call", 8, 1000, [&](int b, int n) {
        for (int i = 0; i < n; ++i) {
          const size_t row =
              (static_cast<size_t>(b) * n + i) % in.stream_rows();
          report->Op(service->IngestClickAt(in.StreamRow(row), last_ts).ok());
        }
      });
  RICD_RETURN_IF_ERROR(service->Shutdown());
  RICD_RETURN_IF_ERROR(
      TraceRuns(core::RicdFramework(serve_options.framework), retained,
                tracer, report)
          .status());

  double replay_work = 0;
  for (size_t i = 0; i < untraced.append_s.size(); ++i) {
    replay_work += untraced.append_s[i] + untraced.ingest_s[i];
  }
  report->Add("gen.materialize_s", "s", Median(materialize));
  report->Add("ricd.incremental.bootstrap_s", "s", untraced.bootstrap_s);
  report->Add("ricd.incremental.ingest_s", "s", Median(untraced.ingest_s));
  report->Add("ricd.incremental.region_edge_frac", "frac",
              untraced.standing_edges == 0
                  ? 0.0
                  : static_cast<double>(untraced.region_edges) /
                        static_cast<double>(untraced.standing_edges));
  report->Add("ricd.incremental.capacity_cps", "1/s",
              replay_work > 0 ? static_cast<double>(untraced.rows) / replay_work
                              : 0.0);
  report->Add("window.append_s", "s", Median(untraced.append_s));
  report->Add("window.materialize_s", "s", Median(untraced.materialize_s));
  report->Add("serve.start_s", "s", Median(start));
  report->Add("serve.ingest_call_s", "s", ingest_call);
  report->Add("serve.ingest_rejected", "count", static_cast<double>(rejected));
  AddPublishMetrics(watch.publishes(), accepted.size(), due, fresh, report);
  report->Add("serve.rebuilds", "count", static_cast<double>(rebuilds));
  report->Add("serve.ingest.batches", "count", static_cast<double>(batches));
  report->Add("serve.verdicts_acquire_s", "s", acquire);
  report->Add("loadgen.late_p90_s", "s", Quantile(late, 0.9));
  report->Add("trace.overhead_frac", "frac",
              traced.total_s / untraced.total_s - 1.0);
  return Status::Ok();
}

}  // namespace ricd::perfbench
