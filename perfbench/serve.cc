// serve_mixed: reads beside writes through TcpServer. The `flash_sale`
// preset at small scale (hot skew 1.6); the first half of the arrival order
// bootstraps the service with unbounded retention. One closed-loop
// connection cycles QUERY user / item / pair with keys drawn from the
// arrival order (a recommender worker waits for each verdict); another
// sends INGEST frames of 32 clicks at an open-loop 500 clicks/s. The engine
// is pinned to 1 worker by main(). verdict_latency_s is the click-to-verdict
// freshness p50; TCP query latency is a per-layer metric.

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "detect.h"
#include "obs/metric_names.h"
#include "online.h"
#include "ricd/framework.h"
#include "scenario/registry.h"
#include "serve/detection_service.h"
#include "serve/server.h"

namespace ricd::perfbench {
namespace {

constexpr int kSetups = 9;
constexpr double kClicksPerSecond = 500;
constexpr double kQueryWindowSeconds = 1;
constexpr size_t kFrameClicks = 32;
constexpr double kTailTimeoutSeconds = 60;

/// The service, its server and the two client connections of one set-up,
/// torn down clients first.
struct Stack {
  std::unique_ptr<serve::DetectionService> service;
  std::unique_ptr<serve::TcpServer> server;
  std::unique_ptr<serve::TcpClient> query;
  std::unique_ptr<serve::TcpClient> ingest;

  Status Stop() {
    query.reset();
    ingest.reset();
    if (server != nullptr) server->Stop();
    server.reset();
    Status status = service != nullptr ? service->Shutdown() : Status::Ok();
    service.reset();
    return status;
  }
};

Result<serve::VerdictReply> Query(serve::TcpClient* client,
                                  const table::ClickRecord& key, size_t k) {
  switch (k % 3) {
    case 0:
      return client->QueryUser(key.user);
    case 1:
      return client->QueryItem(key.item);
    default:
      return client->QueryPair(key.user, key.item);
  }
}

}  // namespace

Status RunServeMixed(const RunOptions& options, Tracer* tracer,
                     Report* report) {
  Result<scenario::ScenarioSpec> spec = scenario::FindScenario("flash_sale");
  RICD_RETURN_IF_ERROR(spec.status());
  spec->scale = ScaleFor(options, gen::ScenarioScale::kSmall);
  spec->seed = options.seed;
  const serve::ServeOptions serve_options;  // unbounded retention
  serve::TcpServer::Options server_options;
  server_options.handler_threads = 2;  // one per connection

  // Set-up: materialize + Start + server up + both clients connected.
  std::vector<double> setups, materialize, start;
  OnlineInputs in;
  Stack stack;
  for (int i = 0; i < kSetups; ++i) {
    RICD_RETURN_IF_ERROR(stack.Stop());
    in = OnlineInputs();
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Span span(tracer, "gen.materialize");
      RICD_ASSIGN_OR_RETURN(in, MaterializeOnline(*spec));
      materialize.push_back(span.End());
    }
    {
      Tracer::Span span(tracer, "serve.start");
      stack.service = std::make_unique<serve::DetectionService>(serve_options);
      RICD_RETURN_IF_ERROR(stack.service->Start(in.bootstrap));
      start.push_back(span.End());
    }
    {
      Tracer::Span span(tracer, "serve.server_start");
      stack.server = std::make_unique<serve::TcpServer>(stack.service.get(),
                                                        server_options);
      RICD_RETURN_IF_ERROR(stack.server->Start());
      stack.query = std::make_unique<serve::TcpClient>();
      stack.ingest = std::make_unique<serve::TcpClient>();
      RICD_RETURN_IF_ERROR(stack.query->Connect(stack.server->port()));
      RICD_RETURN_IF_ERROR(stack.ingest->Connect(stack.server->port()));
    }
    setups.push_back(SecondsBetween(t0, Clock::now()));
  }
  serve::DetectionService* service = stack.service.get();

  const size_t frames =
      std::min(in.stream_rows() / kFrameClicks,
               static_cast<size_t>(options.seconds * kClicksPerSecond /
                                   kFrameClicks));
  std::vector<Clock::time_point> due;
  std::vector<double> late;
  std::vector<std::pair<table::ClickRecord, uint64_t>> accepted;
  due.reserve(frames * kFrameClicks);
  accepted.reserve(frames * kFrameClicks);
  late.reserve(frames);
  std::vector<double> rtt, rtt_at;  // round trip, send time since t0
  rtt.reserve(static_cast<size_t>(options.seconds * 40000) + 1024);
  rtt_at.reserve(rtt.capacity());
  uint64_t query_ok = 0, query_failed = 0;
  const uint64_t rebuilds0 = CounterValue(obs::metric_names::kServeRebuilds);
  const uint64_t batches0 = CounterValue(obs::metric_names::kServeIngestBatches);
  const uint64_t rejected0 =
      CounterValue(obs::metric_names::kServeIngestRejected);
  const uint64_t errors0 =
      CounterValue(obs::metric_names::kServeServerProtocolErrors);
  if (options.trace) {
    // STATS folds handled requests into serve.server.requests.
    RICD_RETURN_IF_ERROR(stack.query->Stats().status());
  }
  const uint64_t requests0 =
      CounterValue(obs::metric_names::kServeServerRequests);

  PublishWatch watch(service);
  bool covered = false;
  {
    Tracer::Span span(tracer, "serve.timed_phase");
    std::atomic<bool> stop{false};
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
    std::jthread reader([&] {
      for (size_t k = 0; !stop.load(std::memory_order_acquire); ++k) {
        const table::ClickRecord key =
            in.scenario.table.row(in.schedule[k % in.schedule.size()].row);
        const Clock::time_point sent = Clock::now();
        const bool ok = Query(stack.query.get(), key, k).ok();
        rtt.push_back(SecondsBetween(sent, Clock::now()));
        rtt_at.push_back(SecondsBetween(t0, sent));
        ++(ok ? query_ok : query_failed);
      }
    });
    const double frame_period = kFrameClicks / kClicksPerSecond;
    std::vector<table::ClickRecord> frame;
    for (size_t f = 0; f < frames; ++f) {
      const Clock::time_point due_at =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(f * frame_period));
      watch.SleepUntil(due_at);
      late.push_back(SecondsBetween(due_at, Clock::now()));
      frame.clear();
      for (size_t i = 0; i < kFrameClicks; ++i) {
        frame.push_back(in.StreamRow(f * kFrameClicks + i));
      }
      const Result<serve::IngestAck> ack = stack.ingest->Ingest(frame);
      report->Op(ack.ok() && ack->accepted == frame.size() &&
                 ack->rejected == 0);
      const size_t taken = ack.ok() ? ack->accepted : 0;
      for (size_t i = 0; i < taken; ++i) {
        due.push_back(due_at);
        accepted.emplace_back(frame[i], 0);  // INGEST carries no event time
      }
      watch.Poll();
    }
    stop.store(true, std::memory_order_release);
    reader.join();
    covered = watch.WaitForApplied(accepted.size(), kTailTimeoutSeconds);
  }
  report->attempted += query_ok + query_failed;
  report->failed += query_failed;
  report->Check(covered ? Status::Ok()
                        : Status::DeadlineExceeded("clicks never published"),
                "every accepted click reaches a publish");
  uint64_t requests = 0;
  if (options.trace) {
    RICD_RETURN_IF_ERROR(stack.query->Stats().status());
    requests = CounterValue(obs::metric_names::kServeServerRequests) -
               requests0;
  }
  const uint64_t rebuilds =
      CounterValue(obs::metric_names::kServeRebuilds) - rebuilds0;
  const uint64_t batches =
      CounterValue(obs::metric_names::kServeIngestBatches) - batches0;
  const uint64_t rejected =
      CounterValue(obs::metric_names::kServeIngestRejected) - rejected0;

  table::ClickTable retained;
  {
    Tracer::Span span(tracer, "serve.check");
    report->Check(CheckAgainstOffline(service, serve_options, in.bootstrap,
                                      accepted, &retained),
                  "online verdicts equal offline Run over retained rows");
  }
  const std::vector<double> fresh = Freshness(due, watch.publishes());
  char line[240];
  std::snprintf(line, sizeof(line),
                "freshness: %zu clicks over %zu publishes, %llu rebuilds; "
                "queries: %zu round trips; %zu flagged users, %zu rows "
                "retained",
                fresh.size(), watch.publishes().size(),
                static_cast<unsigned long long>(rebuilds), rtt.size(),
                service->Verdicts()->flagged_users.size(), retained.num_rows());
  report->Note(line);

  if (!options.trace) {
    report->Add("setup_s", "s", Median(setups));
    report->Add("verdict_latency_s", "s",
                FreshnessQuantile(due, fresh, 0.5));
    return stack.Stop();
  }

  // Traced extras, after the output check: the verdict-store and server
  // layers timed over blocks of 1,000 calls, first without spans and then
  // with one span per block; the ratio is the tracing overhead.
  struct Layers {
    double acquire = 0, inproc = 0, tcp_query = 0, total = 0;
  };
  size_t tcp_k = 0;
  const auto layers = [&](Tracer* t) {
    Layers l;
    const Clock::time_point t0 = Clock::now();
    l.acquire = BlockSeconds(t, "serve.verdicts_acquire", 9, 1000,
                             [&](int, int n) {
                               for (int i = 0; i < n; ++i) service->Verdicts();
                             });
    l.inproc = BlockSeconds(
        t, "serve.inproc_query", 9, 1000, [&](int b, int n) {
          for (int i = 0; i < n; ++i) {
            const size_t k = static_cast<size_t>(b) * n + i;
            const table::ClickRecord key =
                in.scenario.table.row(in.schedule[k % in.schedule.size()].row);
            if (k % 3 == 0) {
              service->IsFlaggedUser(key.user);
            } else if (k % 3 == 1) {
              service->IsFlaggedItem(key.item);
            } else {
              service->IsBlockedPair(key.user, key.item);
            }
          }
        });
    l.tcp_query =
        BlockSeconds(t, "serve.tcp_query", 9, 1000, [&](int, int n) {
          for (int i = 0; i < n; ++i, ++tcp_k) {
            const table::ClickRecord key = in.scenario.table.row(
                in.schedule[tcp_k % in.schedule.size()].row);
            report->Op(Query(stack.query.get(), key, tcp_k).ok());
          }
        });
    l.total = SecondsBetween(t0, Clock::now());
    return l;
  };
  Tracer quiet(false);
  const Layers untraced = layers(&quiet);
  const Layers traced = layers(tracer);
  // INGEST frames back to back: one block of 1,000 32-click frames.
  const double tcp_ingest = BlockSeconds(
      tracer, "serve.tcp_ingest", 1, 1000, [&](int, int n) {
        std::vector<table::ClickRecord> frame;
        for (int f = 0; f < n; ++f) {
          frame.clear();
          for (size_t i = 0; i < kFrameClicks; ++i) {
            frame.push_back(in.StreamRow((f * kFrameClicks + i) %
                                         in.stream_rows()));
          }
          const Result<serve::IngestAck> ack = stack.ingest->Ingest(frame);
          report->Op(ack.ok() && ack->rejected == 0);
        }
      });
  const uint64_t errors =
      CounterValue(obs::metric_names::kServeServerProtocolErrors) - errors0;
  RICD_RETURN_IF_ERROR(stack.Stop());
  RICD_RETURN_IF_ERROR(
      TraceRuns(core::RicdFramework(serve_options.framework), retained,
                tracer, report)
          .status());

  report->Add("gen.materialize_s", "s", Median(materialize));
  report->Add("serve.start_s", "s", Median(start));
  report->Add("serve.ingest_rejected", "count", static_cast<double>(rejected));
  AddPublishMetrics(watch.publishes(), accepted.size(), due, fresh, report);
  report->Add("serve.query_p50_s", "s",
              WindowedQuantile(rtt_at, rtt, kQueryWindowSeconds, 0.5));
  report->Add("serve.query_p90_s", "s",
              WindowedQuantile(rtt_at, rtt, kQueryWindowSeconds, 0.9));
  report->Add("serve.rebuilds", "count", static_cast<double>(rebuilds));
  report->Add("serve.ingest.batches", "count", static_cast<double>(batches));
  report->Add("loadgen.late_p90_s", "s", Quantile(late, 0.9));
  report->Add("serve.verdicts_acquire_s", "s", untraced.acquire);
  report->Add("serve.inproc_query_s", "s", untraced.inproc);
  report->Add("serve.tcp_query_s", "s", untraced.tcp_query);
  report->Add("serve.tcp_ingest_s", "s", tcp_ingest);
  report->Add("serve.server.requests", "count", static_cast<double>(requests));
  report->Add("serve.server.protocol_errors", "count",
              static_cast<double>(errors));
  report->Add("trace.overhead_frac", "frac",
              traced.total / untraced.total - 1.0);
  return Status::Ok();
}

}  // namespace ricd::perfbench
