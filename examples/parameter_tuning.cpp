// Parameter tuning: how an operator chooses RICD parameters for their own
// marketplace. Demonstrates (1) deriving data-driven starting points for
// T_hot and T_click from the table statistics (Section IV's 80/20 rule and
// Eq. 4), (2) a small grid sweep scored against a labeled backtest window,
// and (3) the feedback strategy for recall-driven relaxation (Fig. 7).

#include <cstdio>

#include "eval/metrics.h"
#include "gen/scenario.h"
#include "graph/graph_builder.h"
#include "graph/hot_items.h"
#include "ricd/framework.h"
#include "table/table_stats.h"

int main() {
  using namespace ricd;

  // A labeled backtest window: in production this is last month's data
  // with analyst-confirmed attacks; here we generate one.
  auto scenario = gen::MakeScenario(gen::ScenarioScale::kSmall, /*seed=*/99);
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
    return 1;
  }
  auto graph = graph::GraphBuilder::FromTable(scenario->table);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }

  // Step 1: data-driven starting points.
  const auto stats = table::ComputeTableStats(scenario->table);
  const uint64_t derived_t_hot =
      ricd::graph::DeriveHotThreshold(*graph, ricd::graph::kHotClickMass);
  const double derived_t_click =
      (stats.user_side.avg_clicks * 0.8) / (stats.user_side.avg_degree * 0.2);
  std::printf("=== step 1: derive starting points from the data ===\n");
  std::printf("80%%-mass hot threshold: T_hot ~ %llu\n",
              static_cast<unsigned long long>(derived_t_hot));
  std::printf("Eq. 4 hammering threshold: T_click ~ %.0f\n\n", derived_t_click);

  // Step 2: grid sweep around the starting points, scored on the backtest.
  std::printf("=== step 2: grid sweep on the labeled backtest ===\n");
  std::printf("%6s %6s %8s %10s %10s %10s\n", "k1", "k2", "T_click",
              "precision", "recall", "f1");
  core::RicdParams best_params;
  double best_f1 = -1.0;
  for (const uint32_t k : {8u, 10u, 12u}) {
    for (const uint32_t t_click : {10u, 12u, 14u}) {
      core::FrameworkOptions options;
      options.params.k1 = k;
      options.params.k2 = k;
      options.params.t_hot = 1000;
      options.params.t_click = t_click;
      core::RicdFramework ricd(options);
      auto result = ricd.Detect(*graph);
      if (!result.ok()) continue;
      const auto m = eval::Evaluate(*graph, *result, scenario->labels);
      std::printf("%6u %6u %8u %10.3f %10.3f %10.3f\n", k, k, t_click,
                  m.precision, m.recall, m.f1);
      if (m.f1 > best_f1) {
        best_f1 = m.f1;
        best_params = options.params;
      }
    }
  }
  std::printf("best: k1=k2=%u, T_click=%u (F1 %.3f)\n\n", best_params.k1,
              best_params.t_click, best_f1);

  // Step 3: the feedback strategy — when a campaign-day scan with the
  // tuned parameters under-delivers versus the expected alert volume, the
  // framework relaxes T_click/alpha automatically instead of paging an
  // engineer (the Fig. 7 loop).
  std::printf("=== step 3: feedback-driven relaxation ===\n");
  core::FrameworkOptions strict;
  strict.params = best_params;
  strict.params.t_click = 40;  // operator fat-fingered an over-strict value
  strict.expectation = 60;     // alert volume the business expects
  strict.max_feedback_rounds = 4;
  core::RicdFramework ricd(strict);
  auto result = ricd.RunOnGraph(*graph);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  const auto m = eval::Evaluate(*graph, result->detection, scenario->labels);
  std::printf("started at T_click=40; feedback ran %u round(s); effective "
              "T_click=%u alpha=%.2f\n",
              result->feedback_rounds_used, result->effective_params.t_click,
              result->effective_params.alpha);
  std::printf("final output: %llu nodes, precision %.3f, recall %.3f\n",
              static_cast<unsigned long long>(m.output_nodes), m.precision,
              m.recall);
  return 0;
}
