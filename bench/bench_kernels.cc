// Google-benchmark microbenchmarks of the kernels underlying RICD and the
// baselines: graph construction, adjacency intersection, CorePruning,
// SquarePruning, connected components, I2I scoring and the serve query
// path with telemetry on and off. The pruning kernels back the
// Section V-D complexity discussion: CorePruning is O(U + V + E) and its
// time should scale linearly across the workload sizes below, while
// SquarePruning carries the quadratic-ish neighborhood term.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "common/random.h"
#include "engine/worker_engine.h"
#include "gen/scenario.h"
#include "graph/connected_components.h"
#include "graph/graph_builder.h"
#include "graph/intersection.h"
#include "graph/mutable_view.h"
#include "i2i/i2i_score.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "ricd/extension_biclique.h"
#include "ricd/framework.h"
#include "serve/detection_service.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace ricd::bench {
namespace {

/// Workload cache: generating scenarios per benchmark iteration would
/// dominate runtime, so each scale is built once.
const gen::Scenario& CachedScenario(gen::ScenarioScale scale) {
  static auto* cache = new std::map<int, std::unique_ptr<gen::Scenario>>;
  auto& slot = (*cache)[static_cast<int>(scale)];
  if (slot == nullptr) {
    auto scenario =
        ricd::scenario::Materialize(ricd::scenario::BaselineSpec(scale, 42));
    RICD_CHECK(scenario.ok());
    slot = std::make_unique<gen::Scenario>(std::move(scenario).value());
  }
  return *slot;
}

const graph::BipartiteGraph& CachedGraph(gen::ScenarioScale scale) {
  static auto* cache = new std::map<int, std::unique_ptr<graph::BipartiteGraph>>;
  auto& slot = (*cache)[static_cast<int>(scale)];
  if (slot == nullptr) {
    auto graph = graph::GraphBuilder::FromTable(CachedScenario(scale).table);
    RICD_CHECK(graph.ok());
    slot = std::make_unique<graph::BipartiteGraph>(std::move(graph).value());
  }
  return *slot;
}

gen::ScenarioScale ScaleArg(int64_t arg) {
  return static_cast<gen::ScenarioScale>(arg);
}

void TimeGraphBuild(benchmark::State& state, const table::ClickTable& table) {
  for (auto _ : state) {
    auto g = graph::GraphBuilder::FromTable(table);
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(table.num_rows()));
}

/// Scenario tables come consolidated by (user, item): user runs ascend, so
/// the builder probes only its item map.
void BM_GraphBuild(benchmark::State& state) {
  TimeGraphBuild(state, CachedScenario(ScaleArg(state.range(0))).table);
}
BENCHMARK(BM_GraphBuild)
    ->Arg(static_cast<int>(gen::ScenarioScale::kTiny))
    ->Arg(static_cast<int>(gen::ScenarioScale::kSmall))
    ->Unit(benchmark::kMillisecond);

/// The small table's rows plus 10% repeated rows, in a seeded random order:
/// a user's rows rarely neighbour each other, so nearly every row probes
/// the user map, and the repeats go through the duplicate merge.
void BM_GraphBuildShuffled(benchmark::State& state) {
  static const auto* shuffled = [] {
    const table::ClickTable& rows =
        CachedScenario(gen::ScenarioScale::kSmall).table;
    Rng rng(11);
    std::vector<size_t> order(rows.num_rows());
    std::iota(order.begin(), order.end(), size_t{0});
    for (size_t i = 0; i < rows.num_rows() / 10; ++i) {
      order.push_back(static_cast<size_t>(rng.Uniform(rows.num_rows())));
    }
    rng.Shuffle(order);
    auto* table = new table::ClickTable;
    table->Reserve(order.size());
    for (const size_t i : order) table->Append(rows.row(i));
    return table;
  }();
  TimeGraphBuild(state, *shuffled);
}
BENCHMARK(BM_GraphBuildShuffled)->Unit(benchmark::kMillisecond);

/// Point-lookup query stream: ~75% hits drawn from the graph's external ids,
/// ~25% misses, in a shuffled order that defeats branch-predictor warmup.
std::vector<table::UserId> LookupQueries(const graph::BipartiteGraph& g,
                                         size_t n) {
  Rng rng(7);
  std::vector<table::UserId> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Uniform(4) < 3) {
      queries.push_back(g.ExternalUserId(
          static_cast<graph::VertexId>(rng.Uniform(g.num_users()))));
    } else {
      queries.push_back(static_cast<table::UserId>(rng.Next()) | 1);
    }
  }
  return queries;
}

/// Point lookups through the graph's FlatIdMap (open addressing, SplitMix64
/// mix, one probe run per query). The untimed warm-up lookup builds the map.
void BM_IdLookupFlat(benchmark::State& state) {
  const graph::BipartiteGraph& g = CachedGraph(ScaleArg(state.range(0)));
  const auto queries = LookupQueries(g, 4096);
  graph::VertexId warm = 0;
  benchmark::DoNotOptimize(g.LookupUser(queries[0], &warm));
  size_t i = 0;
  for (auto _ : state) {
    graph::VertexId out = 0;
    benchmark::DoNotOptimize(g.LookupUser(queries[i], &out));
    benchmark::DoNotOptimize(out);
    if (++i == queries.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_IdLookupFlat)
    ->Arg(static_cast<int>(gen::ScenarioScale::kSmall))
    ->Arg(static_cast<int>(gen::ScenarioScale::kMedium));

void BM_IntersectionMerge(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  std::vector<graph::VertexId> a;
  std::vector<graph::VertexId> b;
  for (int64_t i = 0; i < n; ++i) {
    a.push_back(static_cast<graph::VertexId>(rng.Uniform(4 * n)));
    b.push_back(static_cast<graph::VertexId>(rng.Uniform(4 * n)));
  }
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::IntersectionSize(a, b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_IntersectionMerge)->Arg(64)->Arg(1024)->Arg(16384);

void BM_IntersectionGallop(benchmark::State& state) {
  // 32-element needle in a large haystack: exercises the galloping path.
  const int64_t n = state.range(0);
  Rng rng(2);
  std::vector<graph::VertexId> small;
  std::vector<graph::VertexId> large;
  for (int64_t i = 0; i < 32; ++i) {
    small.push_back(static_cast<graph::VertexId>(rng.Uniform(4 * n)));
  }
  for (int64_t i = 0; i < n; ++i) {
    large.push_back(static_cast<graph::VertexId>(rng.Uniform(4 * n)));
  }
  std::sort(small.begin(), small.end());
  small.erase(std::unique(small.begin(), small.end()), small.end());
  std::sort(large.begin(), large.end());
  large.erase(std::unique(large.begin(), large.end()), large.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::IntersectionSize(small, large));
  }
}
BENCHMARK(BM_IntersectionGallop)->Arg(4096)->Arg(65536);

void BM_IntersectionDense(benchmark::State& state) {
  // Every other id over a tight range: IntersectionSize routes this to the
  // word-parallel bitset-pair path (range <= 8 * total size).
  const int64_t n = state.range(0);
  std::vector<graph::VertexId> a;
  std::vector<graph::VertexId> b;
  for (int64_t i = 0; i < 2 * n; ++i) {
    if (i % 2 == 0) a.push_back(static_cast<graph::VertexId>(i));
    if (i % 3 != 0) b.push_back(static_cast<graph::VertexId>(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::IntersectionSize(a, b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_IntersectionDense)->Arg(1024)->Arg(16384);

void BM_BitsetProbe(benchmark::State& state) {
  // CopyCatch's one-vs-many shape: one base loaded once, many probes
  // counted against it.
  const int64_t probes = state.range(0);
  Rng rng(4);
  std::vector<graph::VertexId> base;
  for (graph::VertexId v = 0; v < 4096; v += 2) base.push_back(v);
  std::vector<std::vector<graph::VertexId>> probe_sets(
      static_cast<size_t>(probes));
  for (auto& probe : probe_sets) {
    for (int i = 0; i < 64; ++i) {
      probe.push_back(static_cast<graph::VertexId>(rng.Uniform(4096)));
    }
    std::sort(probe.begin(), probe.end());
    probe.erase(std::unique(probe.begin(), probe.end()), probe.end());
  }
  graph::BitsetIntersector bitset;
  for (auto _ : state) {
    bitset.Load(base, 4096);
    uint64_t total = 0;
    for (const auto& probe : probe_sets) total += bitset.Count(probe);
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * probes);
}
BENCHMARK(BM_BitsetProbe)->Arg(16)->Arg(256);

core::RicdParams KernelParams() {
  core::RicdParams p;
  p.k1 = 10;
  p.k2 = 10;
  p.alpha = 1.0;
  p.t_hot = 1000;
  return p;
}

void BM_CorePruning(benchmark::State& state) {
  const auto& g = CachedGraph(ScaleArg(state.range(0)));
  core::ExtensionBicliqueExtractor extractor(KernelParams());
  graph::MutableView view(g);
  for (auto _ : state) {
    view.Reset();
    extractor.CorePruning(view, nullptr);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.num_edges()));
}
BENCHMARK(BM_CorePruning)
    ->Arg(static_cast<int>(gen::ScenarioScale::kTiny))
    ->Arg(static_cast<int>(gen::ScenarioScale::kSmall))
    ->Arg(static_cast<int>(gen::ScenarioScale::kMedium))
    ->Unit(benchmark::kMillisecond);

/// Same kernel with the metrics registry disabled: the wall-time delta
/// against BM_CorePruning/medium bounds the observability overhead (target
/// in DESIGN.md: < 2%). The registry is process-global, so re-enable it
/// before returning no matter what.
void BM_CorePruningMetricsOff(benchmark::State& state) {
  const auto& g = CachedGraph(ScaleArg(state.range(0)));
  core::ExtensionBicliqueExtractor extractor(KernelParams());
  graph::MutableView view(g);
  auto& registry = obs::MetricsRegistry::Global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(false);
  for (auto _ : state) {
    view.Reset();
    extractor.CorePruning(view, nullptr);
  }
  registry.set_enabled(was_enabled);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.num_edges()));
}
BENCHMARK(BM_CorePruningMetricsOff)
    ->Arg(static_cast<int>(gen::ScenarioScale::kMedium))
    ->Unit(benchmark::kMillisecond);

/// One verdict query through TcpServer::HandleRequest in-process (no
/// sockets, no client threads), alternating QUERY_USER and QUERY_PAIR over
/// a live DetectionService bootstrapped on the small baseline. telemetry:1
/// runs with the metrics registry on, so every 64th request observes its
/// latency; telemetry:0 with it off, so no request does. The throughput
/// ratio of the pair is the serve-path telemetry overhead, budgeted at 5%
/// in DESIGN.md §11. The registry is process-global, so it is restored
/// before returning.
void BM_ServeQuery(benchmark::State& state) {
  const bool telemetry = state.range(0) != 0;
  const table::ClickTable& rows =
      CachedScenario(gen::ScenarioScale::kSmall).table;
  serve::ServeOptions options;
  options.framework.params = KernelParams();
  serve::DetectionService service(options);
  const Status started = service.Start(rows);
  RICD_CHECK(started.ok()) << started;
  serve::TcpServer server(&service, serve::TcpServer::Options{0, 1});

  // HandleRequest consumes the bare payload (the Encode* frame minus its
  // 4-byte length prefix) and returns a framed reply.
  std::vector<std::string> payloads;
  for (size_t i = 0; i < 64; ++i) {
    const size_t r = (i * 131) % rows.num_rows();
    const std::string frame =
        i % 2 == 0 ? serve::EncodeQueryUser(rows.user(r))
                   : serve::EncodeQueryPair(rows.user(r), rows.item(r));
    payloads.push_back(frame.substr(4));
    // The timed loop must exercise the verdict path, not error replies.
    const std::string reply = server.HandleRequest(payloads.back());
    RICD_CHECK(reply.size() > 4 &&
               static_cast<uint8_t>(reply[4]) ==
                   static_cast<uint8_t>(serve::OpCode::kVerdict));
  }

  auto& registry = obs::MetricsRegistry::Global();
  const bool registry_was_enabled = registry.enabled();
  registry.set_enabled(telemetry);
  size_t i = 0;
  for (auto _ : state) {
    std::string reply = server.HandleRequest(payloads[i++ % payloads.size()]);
    benchmark::DoNotOptimize(reply);
  }
  registry.set_enabled(registry_was_enabled);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));

  const Status stopped = service.Shutdown();
  RICD_CHECK(stopped.ok()) << stopped;
}
BENCHMARK(BM_ServeQuery)->ArgName("telemetry")->Arg(1)->Arg(0);

/// The Lemma-2 test's work over one benchmark run, reported per iteration:
/// the sparse second-hop entries it read and the dense-row words it added.
class Lemma2Work {
 public:
  void Report(benchmark::State& state) const {
    state.counters["two_hop_entries"] = benchmark::Counter(
        static_cast<double>(entries_->Value() - entries_before_),
        benchmark::Counter::kAvgIterations);
    state.counters["dense_words"] =
        benchmark::Counter(static_cast<double>(words_->Value() - words_before_),
                           benchmark::Counter::kAvgIterations);
  }

 private:
  obs::Counter* entries_ = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kRicdExtractionTwoHopEntries);
  obs::Counter* words_ = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kRicdExtractionDenseWords);
  uint64_t entries_before_ = entries_->Value();
  uint64_t words_before_ = words_->Value();
};

void BM_SquarePruning(benchmark::State& state) {
  const auto& g = CachedGraph(ScaleArg(state.range(0)));
  core::ExtensionBicliqueExtractor extractor(KernelParams());
  graph::MutableView view(g);
  const Lemma2Work work;
  for (auto _ : state) {
    view.Reset();
    extractor.CorePruning(view, nullptr);
    extractor.SquarePruning(view, /*ordered=*/true, nullptr);
  }
  work.Report(state);
}
BENCHMARK(BM_SquarePruning)
    ->Arg(static_cast<int>(gen::ScenarioScale::kTiny))
    ->Arg(static_cast<int>(gen::ScenarioScale::kSmall))
    ->Arg(static_cast<int>(gen::ScenarioScale::kMedium))
    ->Unit(benchmark::kMillisecond);

/// Two sweeps of SquarePruning and CorePruning on one view, as Extract runs
/// them: unlike BM_SquarePruning's first passes, the second sweep skips the
/// candidates the first one certified (DESIGN.md §9.2).
void BM_SquarePruningSweeps(benchmark::State& state) {
  const auto& g = CachedGraph(ScaleArg(state.range(0)));
  core::ExtensionBicliqueExtractor extractor(KernelParams());
  graph::MutableView view(g);
  const Lemma2Work work;
  for (auto _ : state) {
    view.Reset();
    extractor.CorePruning(view, nullptr);
    for (int sweep = 0; sweep < 2; ++sweep) {
      extractor.SquarePruning(view, /*ordered=*/true, nullptr);
      extractor.CorePruning(view, nullptr);
    }
  }
  work.Report(state);
}
BENCHMARK(BM_SquarePruningSweeps)
    ->Arg(static_cast<int>(gen::ScenarioScale::kTiny))
    ->Arg(static_cast<int>(gen::ScenarioScale::kSmall))
    ->Arg(static_cast<int>(gen::ScenarioScale::kMedium))
    ->Unit(benchmark::kMillisecond);

/// Parallel pruning at an explicit worker count (arg); above one worker the
/// atomic CorePruning frontier path is measured too. Output is
/// bit-identical across args by construction; this bench tracks the
/// schedule's cost/scaling, bench_parallel_scaling records the ratio.
void BM_SquarePruningParallel(benchmark::State& state) {
  const auto& g = CachedGraph(gen::ScenarioScale::kSmall);
  engine::WorkerEngine engine(static_cast<size_t>(state.range(0)));
  core::ExtensionBicliqueExtractor extractor(KernelParams(), &engine);
  graph::MutableView view(g);
  for (auto _ : state) {
    view.Reset();
    extractor.CorePruning(view, nullptr);
    extractor.SquarePruning(view, /*ordered=*/true, nullptr);
  }
}
BENCHMARK(BM_SquarePruningParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_ConnectedComponents(benchmark::State& state) {
  const auto& g = CachedGraph(ScaleArg(state.range(0)));
  graph::MutableView view(g);
  for (auto _ : state) {
    auto groups = graph::ActiveConnectedComponents(view);
    benchmark::DoNotOptimize(groups);
  }
}
BENCHMARK(BM_ConnectedComponents)
    ->Arg(static_cast<int>(gen::ScenarioScale::kTiny))
    ->Arg(static_cast<int>(gen::ScenarioScale::kSmall))
    ->Unit(benchmark::kMillisecond);

void BM_I2iRelatedItems(benchmark::State& state) {
  const auto& g = CachedGraph(gen::ScenarioScale::kSmall);
  // Use the hottest item as the anchor (worst case: biggest audience).
  graph::VertexId anchor = 0;
  uint64_t best = 0;
  for (graph::VertexId v = 0; v < g.num_items(); ++v) {
    if (g.ItemTotalClicks(v) > best) {
      best = g.ItemTotalClicks(v);
      anchor = v;
    }
  }
  i2i::I2iScorer scorer(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.RelatedItems(anchor, 20));
  }
}
BENCHMARK(BM_I2iRelatedItems)->Unit(benchmark::kMillisecond);

/// The full detection pipeline (generation spans excluded: the graph is
/// cached), exercising the extraction / screening / identification /
/// feedback spans and stage counters end to end.
void BM_RicdEndToEnd(benchmark::State& state) {
  const auto& g = CachedGraph(ScaleArg(state.range(0)));
  core::FrameworkOptions options;
  options.params = KernelParams();
  core::RicdFramework ricd(options);
  for (auto _ : state) {
    auto result = ricd.RunOnGraph(g);
    RICD_CHECK(result.ok()) << result.status();
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_RicdEndToEnd)
    ->Arg(static_cast<int>(gen::ScenarioScale::kTiny))
    ->Arg(static_cast<int>(gen::ScenarioScale::kSmall))
    ->Unit(benchmark::kMillisecond);

/// Raw cost of the instruments themselves, for the overhead discussion.
void BM_MetricsCounterAdd(benchmark::State& state) {
  obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("bench.kernels.counter_add");
  for (auto _ : state) {
    counter->Add(1);
  }
}
BENCHMARK(BM_MetricsCounterAdd);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  obs::Histogram* hist =
      obs::MetricsRegistry::Global().GetHistogram("bench.kernels.hist_observe");
  double sample = 1e-6;
  for (auto _ : state) {
    hist->Observe(sample);
    sample += 1e-9;
  }
}
BENCHMARK(BM_MetricsHistogramObserve);

/// BENCHMARK_MAIN() replacement: identical flow, plus the RICD_BENCH_JSON
/// sink so kernel microbenchmarks feed the same perf trajectory as the
/// experiment benches. Also runs one detection pass outside the benchmark
/// loop so the record carries the full span tree even under --benchmark_filter.
int KernelBenchMain(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const auto scale = gen::ScenarioScale::kSmall;
  const auto& g = CachedGraph(scale);
  {
    core::FrameworkOptions options;
    options.params = KernelParams();
    core::RicdFramework ricd(options);
    auto result = ricd.Run(CachedScenario(scale).table);
    RICD_CHECK(result.ok()) << result.status();
  }
  obs::WorkloadScale desc;
  desc.scale = gen::ScenarioScaleName(scale);
  desc.seed = 42;
  desc.users = g.num_users();
  desc.items = g.num_items();
  desc.edges = g.num_edges();
  desc.clicks = g.total_clicks();
  FinishBench("bench_kernels", desc);
  return 0;
}

}  // namespace
}  // namespace ricd::bench

int main(int argc, char** argv) {
  return ricd::bench::KernelBenchMain(argc, argv);
}
