// Deterministic multi-threaded stress for the serve subsystem — the TSan
// leg of tools/check.sh runs this to sweep the lock-free paths: concurrent
// producers against the bounded ingest queue, wait-free queriers racing
// snapshot republication (including publishes that retract verdicts),
// and raw VerdictStore publish/acquire churn across ring-slot recycling.
// Every assertion is an invariant that holds under any interleaving; the
// test never sleeps waiting for "enough" concurrency to happen.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "gen/scenario.h"
#include "obs/flight_recorder.h"
#include "obs/request_trace.h"
#include "serve/detection_service.h"
#include "serve/ingest_queue.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/verdict_store.h"
#include "table/click_table.h"

namespace ricd::serve {
namespace {

core::FrameworkOptions TinyFrameworkOptions() {
  core::FrameworkOptions options;
  options.params.k1 = 8;
  options.params.k2 = 8;
  options.params.t_hot = 800;
  options.params.t_click = 12;
  return options;
}

TEST(ServeStressTest, ConcurrentProducersQueriersAndRebuilds) {
  auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, 42);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  const table::ClickTable& rows = scenario->table;

  ServeOptions options;
  options.framework = TinyFrameworkOptions();
  options.queue_capacity = 1024;  // small enough to exercise backpressure
  options.ingest_batch = 128;
  options.max_batch_delay_ms = 2;
  DetectionService service(options);
  ASSERT_TRUE(service.Start(rows).ok());

  constexpr size_t kProducers = 4;
  constexpr size_t kReaders = 4;
  constexpr size_t kPerProducer = 2000;
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> retried{0};
  std::atomic<size_t> producers_done{0};
  std::atomic<bool> stop_readers{false};

  ThreadPool producer_pool(kProducers);
  for (size_t p = 0; p < kProducers; ++p) {
    producer_pool.Submit([&, p] {
      for (size_t i = 0; i < kPerProducer; ++i) {
        const table::ClickRecord rec = rows.row((p * 7919 + i) % rows.num_rows());
        while (true) {
          const Status pushed = service.IngestClick(rec);
          if (pushed.ok()) {
            accepted.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          // Backpressure is the only legal refusal while running; retry
          // until the refresh thread frees a slot. (No ASSERT here — an
          // early return would wedge the producers_done handshake.)
          if (pushed.code() != StatusCode::kResourceExhausted) {
            ADD_FAILURE() << "unexpected ingest status: " << pushed;
            break;
          }
          retried.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::yield();
        }
      }
      producers_done.fetch_add(1, std::memory_order_release);
    });
  }

  ThreadPool reader_pool(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    reader_pool.Submit([&, r] {
      uint64_t last_epoch = 0;
      size_t i = r * 131;
      while (!stop_readers.load(std::memory_order_acquire)) {
        const VerdictStore::ReadRef ref = service.Verdicts();
        // Generations only move forward for any single reader, even while
        // rebuilds retract individual verdicts.
        EXPECT_GE(ref->epoch, last_epoch);
        last_epoch = ref->epoch;
        // Parallel risk vectors never tear: sizes always match.
        EXPECT_EQ(ref->flagged_users.size(), ref->user_risks.size());
        EXPECT_EQ(ref->flagged_items.size(), ref->item_risks.size());
        const table::ClickRecord rec = rows.row(i % rows.num_rows());
        if (ref->BlockedPair(rec.user, rec.item)) {
          EXPECT_TRUE(ref->FlaggedUser(rec.user));
          EXPECT_TRUE(ref->FlaggedItem(rec.item));
        }
        (void)service.IsFlaggedUser(rec.user);
        (void)service.IsFlaggedItem(rec.item);
        (void)service.IsBlockedPair(rec.user, rec.item);
        i += 13;
      }
    });
  }

  // Full rebuilds race the ingest batches and the queriers from a third
  // vantage point (bounded count so TSan runtime stays sane).
  size_t rebuilds = 0;
  while (producers_done.load(std::memory_order_acquire) < kProducers) {
    if (rebuilds < 6) {
      ASSERT_TRUE(service.ForceRebuild().ok());
      ++rebuilds;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  producer_pool.Wait();
  ASSERT_TRUE(service.Drain().ok());
  stop_readers.store(true, std::memory_order_release);
  reader_pool.Wait();

  // Accounting closes exactly: every accepted record was popped and applied,
  // every refusal was surfaced (retried here), nothing vanished.
  EXPECT_EQ(accepted.load(), kProducers * kPerProducer);
  const IngestQueueStats stats = service.queue_stats();
  EXPECT_EQ(stats.pushed, kProducers * kPerProducer);
  EXPECT_EQ(stats.popped, stats.pushed);
  EXPECT_EQ(stats.rejected, retried.load());
  EXPECT_EQ(stats.depth, 0u);
  const VerdictStore::ReadRef final_ref = service.Verdicts();
  EXPECT_EQ(final_ref->stats.applied, stats.pushed);
  // Bootstrap + every ForceRebuild published its own epoch.
  EXPECT_GT(final_ref->epoch, rebuilds);

  ASSERT_TRUE(service.Shutdown().ok());
  ASSERT_TRUE(service.Shutdown().ok());  // idempotent
}

// stats.applied counts the published cut, not the queue: while producers
// stream timestamped clicks through a retention-bounded window and another
// thread loops on ForceRebuild (publishing from outside the refresh
// thread), every snapshot any reader pins must account for exactly the
// rows its window held — applied + bootstrap rows == retained + evicted.
TEST(ServeStressTest, EveryPublishReportsTheCutItRanOver) {
  auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, 42);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  const table::ClickTable& rows = scenario->table;
  table::ClickTable bootstrap;
  for (size_t i = 0; i < rows.num_rows() / 2; ++i) bootstrap.Append(rows.row(i));

  ServeOptions options;
  options.framework = TinyFrameworkOptions();
  options.ingest_batch = 512;
  options.max_batch_delay_ms = 2;
  options.window.segment_clicks = 256;
  options.window.max_clicks = 4096;
  DetectionService service(options);
  ASSERT_TRUE(service.Start(bootstrap).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> checked{0};
  const auto check_cut = [&](const VerdictSnapshot& snap) {
    EXPECT_EQ(snap.stats.applied + bootstrap.num_rows(),
              snap.stats.window_retained_rows + snap.stats.window_evicted_rows)
        << "epoch " << snap.epoch;
  };
  ThreadPool readers(2);
  for (int r = 0; r < 2; ++r) {
    readers.Submit([&] {
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const VerdictStore::ReadRef ref = service.Verdicts();
        if (ref->epoch == last_epoch) continue;
        last_epoch = ref->epoch;
        check_cut(*ref);
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread rebuilder([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(service.ForceRebuild().ok());
      // Leave the refresh thread room to take state_mu_ in between.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const size_t streamed = 2 * rows.num_rows();
  for (size_t i = 0; i < streamed; ++i) {
    const table::ClickRecord rec = rows.row(i % rows.num_rows());
    Status pushed = service.IngestClickAt(rec, i / 64);
    while (!pushed.ok() && pushed.code() == StatusCode::kResourceExhausted) {
      std::this_thread::yield();
      pushed = service.IngestClickAt(rec, i / 64);
    }
    ASSERT_TRUE(pushed.ok()) << pushed;
  }
  ASSERT_TRUE(service.Drain().ok());
  stop.store(true, std::memory_order_release);
  rebuilder.join();
  readers.Wait();

  const VerdictStore::ReadRef final_ref = service.Verdicts();
  check_cut(*final_ref);
  EXPECT_EQ(final_ref->stats.applied, streamed);
  EXPECT_GT(final_ref->stats.window_evicted_rows, 0u);
  EXPECT_GT(checked.load(), 0u);
  ASSERT_TRUE(service.Shutdown().ok());
}

TEST(ServeStressTest, VerdictStorePublishAcquireChurn) {
  VerdictStore store;
  constexpr uint64_t kPublishes = 3000;
  constexpr size_t kReaders = 6;
  std::atomic<bool> done{false};

  ThreadPool readers(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.Submit([&store, &done] {
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        const VerdictStore::ReadRef ref = store.Acquire();
        ASSERT_NE(ref.get(), nullptr);
        // Each published snapshot encodes its epoch in its payload; a torn
        // or recycled-under-the-reader snapshot breaks this immediately.
        if (ref->epoch != 0) {
          ASSERT_EQ(ref->flagged_users.size(), 1u);
          EXPECT_EQ(ref->flagged_users[0],
                    static_cast<table::UserId>(ref->epoch));
          EXPECT_EQ(ref->user_risks[0], static_cast<double>(ref->epoch));
        }
        EXPECT_GE(ref->epoch, last_epoch);
        last_epoch = ref->epoch;
      }
    });
  }

  for (uint64_t e = 1; e <= kPublishes; ++e) {
    auto snapshot = std::make_shared<VerdictSnapshot>();
    snapshot->epoch = e;
    snapshot->flagged_users = {static_cast<table::UserId>(e)};
    snapshot->user_risks = {static_cast<double>(e)};
    store.Publish(std::move(snapshot));
  }
  done.store(true, std::memory_order_release);
  readers.Wait();

  EXPECT_EQ(store.CurrentEpoch(), kPublishes);
  EXPECT_EQ(store.PublishCount(), kPublishes);
}

// Telemetry-enabled serve sweep: request handlers racing the flight
// recorder's readers and the lazy request-counter reconciliation. Workers
// drive TcpServer::HandleRequest in-process (queries + ingest batches) with
// an aggressive 1-in-4 sample rate while one thread continuously dumps the
// flight recorder and another polls STATS/METRICS — the reads that fold
// request_ids_ into the exact counter. TSan sweeps every ordering; the
// visible invariants are that replies stay decodable and dumped events are
// never torn (valid kind, monotonic seq).
TEST(ServeStressTest, TelemetryEnabledHandlersRaceRecorderReaders) {
  const uint64_t saved_sample = obs::TraceSampleEvery();
  obs::SetTraceSampleEvery(4);
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.set_enabled(true);

  auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, 42);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  const table::ClickTable& rows = scenario->table;

  ServeOptions options;
  options.framework = TinyFrameworkOptions();
  options.ingest_batch = 256;
  options.max_batch_delay_ms = 2;
  DetectionService service(options);
  ASSERT_TRUE(service.Start(rows).ok());
  TcpServer server(&service, TcpServer::Options{0, 2});
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kWorkers = 4;
  constexpr size_t kRequestsPerWorker = 3000;
  std::atomic<bool> stop{false};

  ThreadPool workers(kWorkers);
  for (size_t w = 0; w < kWorkers; ++w) {
    workers.Submit([&, w] {
      for (size_t i = 0; i < kRequestsPerWorker; ++i) {
        const size_t r = (w * 7919 + i * 31) % rows.num_rows();
        std::string request;
        if (i % 16 == 15) {
          request = EncodeIngest({rows.row(r)});
        } else if (i % 2 == 0) {
          request = EncodeQueryUser(rows.user(r));
        } else {
          request = EncodeQueryPair(rows.user(r), rows.item(r));
        }
        // HandleRequest takes the bare payload; replies come back framed.
        const std::string reply = server.HandleRequest(request.substr(4));
        ASSERT_GT(reply.size(), 4u);
        ASSERT_NE(static_cast<uint8_t>(reply[4]),
                  static_cast<uint8_t>(OpCode::kError));
      }
    });
  }

  std::thread dumper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      uint64_t last_seq = 0;
      bool first = true;
      for (const obs::FlightEvent& ev : recorder.Dump()) {
        ASSERT_LE(static_cast<uint32_t>(ev.kind),
                  static_cast<uint32_t>(obs::FlightEventKind::kSegmentEvict));
        if (!first) {
          ASSERT_GT(ev.seq, last_seq);
        }
        first = false;
        last_seq = ev.seq;
      }
      (void)recorder.DumpText();
    }
  });
  std::thread poller([&] {
    const std::string stats_req = EncodeStats().substr(4);
    const std::string metrics_req = EncodeMetricsRequest().substr(4);
    while (!stop.load(std::memory_order_acquire)) {
      const auto stats =
          DecodeStatsReply(server.HandleRequest(stats_req).substr(4));
      ASSERT_TRUE(stats.ok()) << stats.status();
      const auto metrics =
          DecodeMetricsReply(server.HandleRequest(metrics_req).substr(4));
      ASSERT_TRUE(metrics.ok()) << metrics.status();
      std::this_thread::yield();
    }
  });

  workers.Wait();
  stop.store(true, std::memory_order_release);
  dumper.join();
  poller.join();

  // One final STATS folds the remaining request ids into the exact counter;
  // sampled traces must have reached the recorder.
  const auto stats = DecodeStatsReply(
      server.HandleRequest(EncodeStats().substr(4)).substr(4));
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats->query_p50, 0.0);
  EXPECT_GT(recorder.total_recorded(), 0u);

  server.Stop();
  ASSERT_TRUE(service.Drain().ok());
  ASSERT_TRUE(service.Shutdown().ok());
  obs::SetTraceSampleEvery(saved_sample);
}

}  // namespace
}  // namespace ricd::serve
