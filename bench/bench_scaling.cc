// End-to-end scaling of RICD and the fast baselines across workload sizes,
// backing the Section V-D complexity analysis: CorePruning is
// O(U + V + E) (near-linear rows below); SquarePruning carries the
// two-hop neighborhood term and dominates RICD's total.
//
// RICD_SCALE clamps the top of the sweep (default medium; the bench_smoke
// ctest guard runs with RICD_SCALE=tiny). Set RICD_SCALING_LARGE=1 to
// include the large (200k-user) point.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "baselines/lpa.h"
#include "baselines/naive.h"
#include "bench/bench_common.h"
#include "common/timer.h"
#include "eval/experiment.h"
#include "graph/mutable_view.h"
#include "ricd/extension_biclique.h"
#include "ricd/framework.h"
#include "ricd/ui_adapter.h"

namespace ricd::bench {
namespace {

int Run() {
  PrintHeader("Scaling of detection stages across workload sizes",
              "Section V-D complexity analysis");

  const gen::ScenarioScale max_scale = ScaleFromEnv(gen::ScenarioScale::kMedium);
  std::vector<gen::ScenarioScale> scales;
  for (const auto scale :
       {gen::ScenarioScale::kTiny, gen::ScenarioScale::kSmall,
        gen::ScenarioScale::kMedium}) {
    if (static_cast<int>(scale) > static_cast<int>(max_scale)) break;
    scales.push_back(scale);
  }
  if (std::getenv("RICD_SCALING_LARGE") != nullptr ||
      max_scale == gen::ScenarioScale::kLarge) {
    scales.push_back(gen::ScenarioScale::kLarge);
  }

  std::printf("%-8s %10s %10s %12s | %10s %10s %10s %10s %10s\n", "scale",
              "users", "items", "edges", "build(s)", "core(s)", "square(s)",
              "ricd(s)", "lpa+ui(s)");

  for (const auto scale : scales) {
    auto scenario =
        ricd::scenario::Materialize(ricd::scenario::BaselineSpec(scale, 42));
    RICD_CHECK(scenario.ok()) << scenario.status();

    Result<graph::BipartiteGraph> graph = Status::Internal("not run");
    const double build_s = TimedStage("bench.scaling.build", [&] {
      graph = graph::GraphBuilder::FromTable(scenario->table);
    });
    RICD_CHECK(graph.ok()) << graph.status();

    const core::RicdParams params = PaperDefaultParams();
    core::ExtensionBicliqueExtractor extractor(params);

    graph::MutableView view(*graph);
    const double core_s = TimedStage("bench.scaling.core_pruning", [&] {
      extractor.CorePruning(view, nullptr);
    });

    const double square_s = TimedStage("bench.scaling.square_pruning", [&] {
      extractor.SquarePruning(view, /*ordered=*/true, nullptr);
    });

    core::FrameworkOptions options;
    options.params = params;
    core::RicdFramework ricd(options);
    Result<baselines::DetectionResult> ricd_result = Status::Internal("not run");
    const double ricd_s = TimedStage("bench.scaling.ricd_end_to_end", [&] {
      ricd_result = ricd.Detect(*graph);
    });
    RICD_CHECK(ricd_result.ok());

    core::ScreenedDetector lpa(std::make_unique<baselines::Lpa>(), params);
    Result<baselines::DetectionResult> lpa_result = Status::Internal("not run");
    const double lpa_s = TimedStage("bench.scaling.lpa_ui", [&] {
      lpa_result = lpa.Detect(*graph);
    });
    RICD_CHECK(lpa_result.ok());

    std::printf("%-8s %10u %10u %12llu | %10.3f %10.3f %10.3f %10.3f %10.3f\n",
                gen::ScenarioScaleName(scale), graph->num_users(),
                graph->num_items(),
                static_cast<unsigned long long>(graph->num_edges()), build_s,
                core_s, square_s, ricd_s, lpa_s);
  }

  std::printf("\nExpected shape: build and CorePruning grow linearly with "
              "edges;\nSquarePruning grows faster (two-hop term) and "
              "dominates RICD end-to-end.\n");

  obs::WorkloadScale workload_desc;
  workload_desc.scale = "sweep";
  workload_desc.seed = 42;
  FinishBench("bench_scaling", workload_desc);
  return 0;
}

}  // namespace
}  // namespace ricd::bench

int main() { return ricd::bench::Run(); }
