// Deterministic concurrency stress tests, written for the TSan leg of
// tools/check.sh: every test drives a fixed amount of work through the
// shared-state surfaces (ThreadPool, WorkerEngine, the metrics registry,
// a graph's lazy id maps, and whole detection pipelines) and
// asserts the deterministic parts of the outcome. Under
// -DRICD_SANITIZE=thread the interleavings themselves are the assertion;
// without a sanitizer they still pass as fast checks.
//
// This file deliberately spawns raw std::thread contenders (allowlisted in
// tools/lint_allowlist.txt) — the point is to race *against* the pool and
// the registry from outside.

#include <atomic>
#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "engine/worker_engine.h"
#include "gen/scenario.h"
#include "graph/graph_builder.h"
#include "obs/metrics.h"
#include "ricd/framework.h"

namespace ricd {
namespace {

// Submitters race Submit() against each other and against a Wait() caller;
// every task increments one relaxed counter, so the total is exact.
TEST(RaceTest, ThreadPoolSubmitWaitHammer) {
  constexpr int kSubmitters = 4;
  constexpr int kTasksPerSubmitter = 500;
  ThreadPool pool(/*num_threads=*/4);
  std::atomic<uint64_t> executed{0};

  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &executed] {
      for (int i = 0; i < kTasksPerSubmitter; ++i) {
        pool.Submit([&executed] {
          executed.fetch_add(1, std::memory_order_relaxed);
        });
        if (i % 100 == 0) pool.Wait();  // Wait() racing in-flight Submit().
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  pool.Wait();
  EXPECT_EQ(executed.load(), uint64_t{kSubmitters} * kTasksPerSubmitter);
}

// Two raw threads share one engine, each issuing ParallelForChunks rounds
// whose writes land in thread-private buffers — exercises the pool's queue
// and completion signalling under concurrent calling threads.
TEST(RaceTest, WorkerEngineConcurrentParallelFor) {
  constexpr uint32_t kN = 4096;
  constexpr int kRounds = 20;
  engine::WorkerEngine eng(/*num_workers=*/4);

  auto drive = [&eng] {
    std::vector<uint32_t> out(kN, 0);
    for (int round = 0; round < kRounds; ++round) {
      eng.ParallelForChunks(kN, [&out](size_t, engine::VertexRange range) {
        for (uint32_t i = range.begin; i < range.end; ++i) out[i] = i;
      });
      uint64_t sum = 0;
      for (const uint32_t v : out) sum += v;
      ASSERT_EQ(sum, uint64_t{kN} * (kN - 1) / 2);
    }
  };
  std::thread a(drive);
  std::thread b(drive);
  a.join();
  b.join();
}

// Per-worker partial sums, combined in worker order, while another thread
// runs its own reductions on the same engine.
TEST(RaceTest, WorkerEngineConcurrentReductions) {
  constexpr uint32_t kN = 10000;
  engine::WorkerEngine eng(/*num_workers=*/4);
  auto drive = [&eng] {
    for (int round = 0; round < 10; ++round) {
      std::vector<uint64_t> partials(eng.num_workers(), 0);
      eng.ParallelForChunks(kN, [&partials](size_t worker,
                                            engine::VertexRange range) {
        for (uint32_t i = range.begin; i < range.end; ++i) {
          partials[worker] += i;
        }
      });
      uint64_t total = 0;
      for (const uint64_t p : partials) total += p;
      ASSERT_EQ(total, uint64_t{kN} * (kN - 1) / 2);
    }
  };
  std::thread a(drive);
  std::thread b(drive);
  a.join();
  b.join();
}

// Writers hammer counters/gauges/histograms while a reader snapshots and
// resets the same (non-global) registry. Totals are unknowable with resets
// in flight, so the deterministic tail re-checks an exact count.
TEST(RaceTest, MetricsRegistryConcurrentReadersWriters) {
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 2000;
  obs::MetricsRegistry registry;

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&registry, w] {
      obs::Counter* counter =
          registry.GetCounter("race.counter." + std::to_string(w % 2));
      obs::Gauge* gauge = registry.GetGauge("race.gauge");
      obs::Histogram* hist = registry.GetHistogram("race.hist");
      for (int i = 0; i < kOpsPerWriter; ++i) {
        counter->Add(1);
        gauge->Set(static_cast<double>(i));
        hist->Observe(1e-4 * i);
      }
    });
  }
  std::thread reader([&registry, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const obs::MetricsSnapshot snap = registry.Snapshot();
      for (const auto& c : snap.counters) ASSERT_GE(c.value, 0u);
      registry.Reset();
    }
  });
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  registry.Reset();
  obs::Counter* counter = registry.GetCounter("race.counter.0");
  counter->Add(7);
  EXPECT_EQ(counter->Value(), 7u);
}

// The first lookups on a graph race to build its lazily built flat id
// maps (one std::call_once for both sides): half the threads enter through
// LookupUser, half through LookupItem, all released at once. The oracle is
// the round trip: every vertex's own external id resolves to that vertex,
// and any hit maps back to the queried id.
TEST(RaceTest, GraphFirstLookups) {
  auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, /*seed=*/42);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  auto built = graph::GraphBuilder::FromTable(scenario.value().table);
  ASSERT_TRUE(built.ok()) << built.status();
  const graph::BipartiteGraph& g = built.value();

  // Probes every vertex's own external id and the next id up, which may
  // miss; counts answers that break the round trip.
  std::atomic<int> mismatches{0};
  auto probe = [&g, &mismatches](graph::Side side) {
    const bool users = side == graph::Side::kUser;
    for (graph::VertexId v = 0; v < g.num_vertices(side); ++v) {
      const int64_t own = users ? g.ExternalUserId(v) : g.ExternalItemId(v);
      for (const int64_t id : {own, own + 1}) {
        graph::VertexId got = 0;
        const bool found =
            users ? g.LookupUser(id, &got) : g.LookupItem(id, &got);
        const bool ok =
            id == own ? found && got == v
                      : !found || (users ? g.ExternalUserId(got)
                                         : g.ExternalItemId(got)) == id;
        if (!ok) mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&probe, &start, t] {
      const graph::Side first = t % 2 == 0 ? graph::Side::kUser
                                           : graph::Side::kItem;
      start.arrive_and_wait();
      probe(first);
      probe(graph::Other(first));
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Full detection pipelines race over the same immutable graph. Each Detect
// reads the shared graph, writes the global registry instruments, and (when
// RICD_VALIDATE is on) runs the gated validators — exactly the shared
// surface worth sanitizing.
TEST(RaceTest, ConcurrentDetectOnSharedGraph) {
  auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, /*seed=*/42);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  auto graph = graph::GraphBuilder::FromTable(scenario.value().table);
  ASSERT_TRUE(graph.ok()) << graph.status();
  const graph::BipartiteGraph& g = graph.value();

  core::FrameworkOptions options;
  options.params.k1 = 8;
  options.params.k2 = 4;
  options.params.alpha = 0.8;

  auto detect_once = [&options, &g](std::atomic<int>* failures) {
    core::RicdFramework framework(options);
    auto result = framework.Detect(g);
    if (!result.ok()) failures->fetch_add(1, std::memory_order_relaxed);
  };
  std::atomic<int> failures{0};
  std::vector<std::thread> drivers;
  for (int i = 0; i < 3; ++i) {
    drivers.emplace_back(detect_once, &failures);
  }
  for (std::thread& t : drivers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace ricd
