#ifndef RICD_BENCH_BENCH_COMMON_H_
#define RICD_BENCH_BENCH_COMMON_H_

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

#include "common/logging.h"
#include "common/timer.h"
#include "gen/scenario.h"
#include "graph/graph_builder.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "ricd/params.h"
#include "scenario/materialize.h"
#include "scenario/registry.h"

namespace ricd::bench {

/// Scale selection for experiment benches: set RICD_SCALE to tiny, small,
/// medium, large, or xlarge (medium x10). Each bench picks its own default.
inline gen::ScenarioScale ScaleFromEnv(gen::ScenarioScale default_scale) {
  const char* env = std::getenv("RICD_SCALE");
  if (env == nullptr) return default_scale;
  gen::ScenarioScale scale = default_scale;
  if (!gen::ParseScenarioScale(env, &scale)) {
    RICD_LOG(WARNING) << "unknown RICD_SCALE '" << env << "', using default";
  }
  return scale;
}

/// Seed selection: RICD_SEED overrides the default workload seed. Anything
/// that is not a plain base-10 unsigned integer (strtoull would silently
/// return 0 for garbage and negate "-5") falls back with a warning.
inline uint64_t SeedFromEnv(uint64_t default_seed) {
  const char* env = std::getenv("RICD_SEED");
  if (env == nullptr) return default_seed;
  const std::string value(env);
  bool all_digits = !value.empty();
  for (const char c : value) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) {
      all_digits = false;
      break;
    }
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (!all_digits || end != value.c_str() + value.size() || errno == ERANGE) {
    RICD_LOG(WARNING) << "invalid RICD_SEED '" << value
                      << "' (expected an unsigned integer), using default seed "
                      << default_seed;
    return default_seed;
  }
  return parsed;
}

/// The paper's default detection parameters (Section VI-B): k1 = k2 = 10,
/// alpha = 1.0, T_hot = 1000, T_click = 12.
inline core::RicdParams PaperDefaultParams() {
  core::RicdParams params;
  params.k1 = 10;
  params.k2 = 10;
  params.alpha = 1.0;
  params.t_hot = 1000;
  params.t_click = 12;
  return params;
}

/// Generates the evaluation scenario and its graph, logging the scale, or
/// dies: benches have no meaningful fallback when generation fails.
struct BenchWorkload {
  gen::Scenario scenario;
  graph::BipartiteGraph graph;
  gen::ScenarioScale scale = gen::ScenarioScale::kTiny;
  uint64_t seed = 0;
  /// The registry spec the workload was assembled from ("baseline" unless
  /// RICD_SCENARIO selected a different preset or spec file).
  scenario::ScenarioSpec spec;
};

/// Resolves the scenario spec for a bench run: RICD_SCENARIO=<name|file>
/// picks any registry preset or JSON spec file; the default is the
/// `baseline` preset — the legacy scale-calibrated workload, bit-identical
/// to what the benches generated before the registry existed. The bench's
/// scale/seed (themselves RICD_SCALE/RICD_SEED-controlled) always win over
/// the spec's own.
inline scenario::ScenarioSpec SpecFromEnv(gen::ScenarioScale scale,
                                          uint64_t seed) {
  const char* env = std::getenv("RICD_SCENARIO");
  if (env == nullptr || env[0] == '\0') {
    return scenario::BaselineSpec(scale, seed);
  }
  auto spec = scenario::LoadScenario(env);
  RICD_CHECK(spec.ok()) << spec.status();
  spec->scale = scale;
  spec->seed = seed;
  return std::move(spec).value();
}

/// Scale descriptors of a workload for the machine-readable bench record.
inline obs::WorkloadScale DescribeWorkload(const BenchWorkload& workload) {
  obs::WorkloadScale desc;
  desc.scale = gen::ScenarioScaleName(workload.scale);
  desc.seed = workload.seed;
  desc.users = workload.graph.num_users();
  desc.items = workload.graph.num_items();
  desc.edges = workload.graph.num_edges();
  desc.clicks = workload.graph.total_clicks();
  return desc;
}

inline void PrintWorkloadLine(const BenchWorkload& w) {
  std::printf(
      "workload: scale=%s seed=%llu users=%u items=%u edges=%llu clicks=%llu\n"
      "labels:   abnormal users=%zu abnormal items=%zu (injected groups=%zu)\n\n",
      gen::ScenarioScaleName(w.scale), static_cast<unsigned long long>(w.seed),
      w.graph.num_users(), w.graph.num_items(),
      static_cast<unsigned long long>(w.graph.num_edges()),
      static_cast<unsigned long long>(w.graph.total_clicks()),
      w.scenario.labels.abnormal_users.size(),
      w.scenario.labels.abnormal_items.size(), w.scenario.groups.size());
}

inline BenchWorkload GenerateWorkload(const scenario::ScenarioSpec& spec) {
  auto scenario = scenario::Materialize(spec);
  RICD_CHECK(scenario.ok()) << scenario.status();
  auto graph = graph::GraphBuilder::FromTable(scenario->table);
  RICD_CHECK(graph.ok()) << graph.status();
  return BenchWorkload{std::move(scenario).value(), std::move(graph).value(),
                       spec.scale, spec.seed, spec};
}

inline BenchWorkload GenerateWorkload(gen::ScenarioScale scale, uint64_t seed) {
  return GenerateWorkload(SpecFromEnv(scale, seed));
}

inline BenchWorkload MakeWorkload(gen::ScenarioScale scale, uint64_t seed) {
  BenchWorkload workload = GenerateWorkload(scale, seed);
  PrintWorkloadLine(workload);
  return workload;
}

/// Prints a section header in the style used across all benches.
inline void PrintHeader(const char* experiment, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper reference: %s\n", paper_ref);
  std::printf("==============================================================\n");
}

/// Times `fn`, records the elapsed seconds into the named registry
/// histogram, and returns the elapsed seconds — the replacement for the
/// hand-rolled WallTimer/printf pairs the benches used to carry.
inline double TimedStage(const char* histogram_name,
                         const std::function<void()>& fn) {
  obs::Histogram* hist =
      obs::MetricsRegistry::Global().GetHistogram(histogram_name);
  double elapsed = 0.0;
  {
    ScopedTimer<obs::Histogram> timer(hist);
    fn();
    elapsed = timer.ElapsedSeconds();
  }
  return elapsed;
}

/// Machine-readable perf-trajectory sink: when RICD_BENCH_JSON=<path> is
/// set, appends one JSON record (metrics + spans + workload descriptors,
/// JSON-Lines style) for this bench run. Call once at the end of main.
inline void FinishBench(const char* bench_name,
                        const obs::WorkloadScale& workload = {}) {
  const char* path = std::getenv("RICD_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') return;
  const std::string record = obs::GlobalMetricsReportJson(bench_name, workload);
  const Status status = obs::AppendJsonLine(path, record);
  if (!status.ok()) {
    RICD_LOG(ERROR) << "RICD_BENCH_JSON sink failed: " << status.ToString();
    return;
  }
  std::printf("\n[obs] appended bench record '%s' to %s\n", bench_name, path);
}

}  // namespace ricd::bench

#endif  // RICD_BENCH_BENCH_COMMON_H_
