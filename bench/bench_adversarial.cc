// Adversarial robustness matrix (extension; ROADMAP item 2): every
// registered attack family is swept over the pinned attacker-knob grid
// (budget, group size, camouflage rate) against the detector panel (RICD,
// FRAUDAR+UI, CopyCatch+UI), producing the robustness curves the paper's
// single-campaign evaluation cannot show. Phase 1 first materializes every
// scenario-registry preset at the bench scale, so preset rot fails
// bench_smoke instead of the next consumer.
//
// The per-point precision/recall/f1 gauges land in RICD_BENCH_JSON and are
// folded into the committed BENCH_adversarial.json trajectory by
// tools/bench_trajectory (quality regressions gate like perf regressions).

#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "eval/redteam.h"

namespace ricd::bench {
namespace {

int Run() {
  PrintHeader("Adversarial matrix: attack families x knobs x detectors",
              "ROADMAP item 2 (Fang et al. 1809.04127; RecAD 2309.04884)");

  const auto scale = ScaleFromEnv(gen::ScenarioScale::kTiny);
  const uint64_t seed = SeedFromEnv(42);

  // --- Phase 1: every registry preset must materialize at this scale. ---
  std::printf("--- Scenario registry presets (scale=%s seed=%llu) ---\n",
              gen::ScenarioScaleName(scale),
              static_cast<unsigned long long>(seed));
  std::printf("%-18s %10s %10s %8s %8s %12s\n", "preset", "rows", "labels",
              "groups", "clubs", "materialize");
  for (const std::string& name : ricd::scenario::ScenarioNames()) {
    auto spec = ricd::scenario::FindScenario(name);
    RICD_CHECK(spec.ok()) << spec.status();
    spec->scale = scale;
    spec->seed = seed;
    gen::Scenario scen;
    const double elapsed =
        TimedStage("bench.adversarial.materialize_seconds", [&] {
          auto made = ricd::scenario::Materialize(*spec);
          RICD_CHECK(made.ok()) << made.status();
          scen = std::move(made).value();
        });
    // The arrival schedule must be a true permutation for every preset.
    const auto order = ricd::scenario::ArrivalOrder(*spec, scen.table);
    RICD_CHECK(order.size() == scen.table.num_rows());
    std::printf("%-18s %10zu %10zu %8zu %8zu %10.3fs\n", name.c_str(),
                scen.table.num_rows(), scen.labels.size(), scen.groups.size(),
                scen.organic_clubs.size(), elapsed);
  }

  // --- Phase 2: the red-team sweep on the pinned-floor scenario. ---
  std::printf("\n--- Red-team sweep (base=ric_burst) ---\n");
  auto base = ricd::scenario::FindScenario("ric_burst");
  RICD_CHECK(base.ok()) << base.status();
  base->scale = scale;
  base->seed = seed;

  eval::RedteamOptions options;
  options.base = std::move(base).value();
  options.params = PaperDefaultParams();
  auto points = eval::RunRedteam(options);
  RICD_CHECK(points.ok()) << points.status();
  std::printf("\n");
  eval::PrintRedteamTable(std::cout, *points);
  eval::EmitRedteamGauges(*points);

  // Describe the sweep's base workload (clean background + the preset's
  // own campaign) so the committed trajectory records what was attacked.
  obs::WorkloadScale workload_desc;
  workload_desc.scale = gen::ScenarioScaleName(scale);
  workload_desc.seed = seed;
  {
    auto materialized = ricd::scenario::Materialize(options.base);
    RICD_CHECK(materialized.ok()) << materialized.status();
    auto graph = graph::GraphBuilder::FromTable(materialized->table);
    RICD_CHECK(graph.ok()) << graph.status();
    workload_desc.users = graph->num_users();
    workload_desc.items = graph->num_items();
    workload_desc.edges = graph->num_edges();
    workload_desc.clicks = graph->total_clicks();
  }
  FinishBench("bench_adversarial", workload_desc);
  return 0;
}

}  // namespace
}  // namespace ricd::bench

int main() { return ricd::bench::Run(); }
