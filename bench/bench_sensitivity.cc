// Reproduces Fig. 9: parameter sensitivity of RICD over k1, k2, alpha,
// T_click and T_hot, with the paper's sweep values and defaults
// (k1=10, k2=10, alpha=1.0, T_click=12, T_hot=2000), plus the camouflage
// robustness sweep called out in DESIGN.md (property (3) of Section III-B).
//
// Expected shapes (paper): monotone precision/recall trends in k1, k2,
// alpha and T_click; T_hot is the exception with recall peaking mid-range;
// raising k1 and k2 moves precision in opposite directions.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "eval/experiment.h"
#include "ricd/framework.h"

namespace ricd::bench {
namespace {

eval::Metrics RunWith(const BenchWorkload& workload, const core::RicdParams& p) {
  core::FrameworkOptions options;
  options.params = p;
  core::RicdFramework ricd(options);
  auto result = ricd.Detect(workload.graph);
  RICD_CHECK(result.ok()) << result.status();
  return eval::Evaluate(workload.graph, *result, workload.scenario.labels);
}

void PrintSweepRow(const char* label, double value, const eval::Metrics& m) {
  std::printf("%8s = %-8g %10.3f %10.3f %10.3f %10llu\n", label, value,
              m.precision, m.recall, m.f1,
              static_cast<unsigned long long>(m.output_nodes));
}

void SweepHeader(const char* fig, const char* what) {
  std::printf("--- %s: sensitivity to %s ---\n", fig, what);
  std::printf("%19s %10s %10s %10s %10s\n", "", "precision", "recall", "f1",
              "output");
}

core::RicdParams Fig9Defaults() {
  core::RicdParams p = PaperDefaultParams();
  p.t_hot = 2000;  // the paper's Fig. 9 default differs from Fig. 8
  return p;
}

int Run() {
  PrintHeader("RICD parameter sensitivity",
              "Fig. 9a-9e (defaults: k1=10, k2=10, alpha=1.0, T_click=12, "
              "T_hot=2000) + camouflage robustness");

  const auto scale = ScaleFromEnv(gen::ScenarioScale::kMedium);
  const auto workload = MakeWorkload(scale, SeedFromEnv(42));

  SweepHeader("Fig. 9a", "k1 (minimum users per group)");
  for (const uint32_t k1 : {5u, 10u, 15u, 20u}) {
    core::RicdParams p = Fig9Defaults();
    p.k1 = k1;
    PrintSweepRow("k1", k1, RunWith(workload, p));
  }
  std::printf("\n");

  SweepHeader("Fig. 9b", "k2 (minimum items per group)");
  for (const uint32_t k2 : {5u, 10u, 15u, 20u}) {
    core::RicdParams p = Fig9Defaults();
    p.k2 = k2;
    PrintSweepRow("k2", k2, RunWith(workload, p));
  }
  std::printf("\n");

  SweepHeader("Fig. 9c", "alpha (extension tolerance)");
  for (const double alpha : {0.7, 0.8, 0.9, 1.0}) {
    core::RicdParams p = Fig9Defaults();
    p.alpha = alpha;
    PrintSweepRow("alpha", alpha, RunWith(workload, p));
  }
  std::printf("\n");

  SweepHeader("Fig. 9d", "T_click (abnormal click threshold)");
  for (const uint32_t t_click : {10u, 12u, 14u, 16u}) {
    core::RicdParams p = Fig9Defaults();
    p.t_click = t_click;
    PrintSweepRow("T_click", t_click, RunWith(workload, p));
  }
  std::printf("\n");

  SweepHeader("Fig. 9e", "T_hot (hot item threshold)");
  for (const uint32_t t_hot : {1000u, 2000u, 3000u, 4000u}) {
    core::RicdParams p = Fig9Defaults();
    p.t_hot = t_hot;
    PrintSweepRow("T_hot", t_hot, RunWith(workload, p));
  }
  std::printf("(paper: the only non-monotone knob — recall peaks mid-range)\n\n");

  // Camouflage robustness: regenerate the workload with increasing
  // camouflage effort per worker and watch RICD's quality.
  std::printf("--- Camouflage robustness (property (3), Section III-B) ---\n");
  std::printf("%19s %10s %10s %10s %10s\n", "", "precision", "recall", "f1",
              "output");
  for (const uint32_t camo_items : {0u, 3u, 6u, 12u}) {
    gen::AttackConfig attack = gen::AttackConfigFor(scale);
    attack.camouflage_items = camo_items;
    auto scenario =
        gen::MakeScenario(gen::BackgroundConfigFor(scale), attack,
                          gen::OrganicConfigFor(scale), SeedFromEnv(42));
    RICD_CHECK(scenario.ok()) << scenario.status();
    auto graph = graph::GraphBuilder::FromTable(scenario->table);
    RICD_CHECK(graph.ok()) << graph.status();

    core::FrameworkOptions options;
    options.params = PaperDefaultParams();
    core::RicdFramework ricd(options);
    auto result = ricd.Detect(*graph);
    RICD_CHECK(result.ok()) << result.status();
    const auto m = eval::Evaluate(*graph, *result, scenario->labels);
    PrintSweepRow("camo", camo_items, m);
  }
  std::printf("(camouflage edges cannot remove the biclique the attack "
              "needs, so quality\n should degrade only mildly — the paper's "
              "camouflage-restriction property)\n");
  FinishBench("bench_sensitivity", DescribeWorkload(workload));
  return 0;
}

}  // namespace
}  // namespace ricd::bench

int main() { return ricd::bench::Run(); }
