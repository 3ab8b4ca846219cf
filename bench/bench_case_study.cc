// Reproduces the Section VII case study (Fig. 10): the traffic timeline of
// a detected attack group across a marketing campaign — attack ramp before
// the campaign, boosted traffic during it, detection + cleanup on day 9,
// restoration to organic levels, and delisting on day 13. Also demonstrates
// the detection half of the story: RICD run on a snapshot taken just
// before the detection day finds the planted group.

#include <algorithm>
#include <unordered_set>
#include <cstdio>

#include "bench/bench_common.h"
#include "common/random.h"
#include "eval/metrics.h"
#include "i2i/i2i_score.h"
#include "i2i/recommender.h"
#include "i2i/traffic_model.h"
#include "ricd/framework.h"

namespace ricd::bench {
namespace {

void PrintSeries(const std::vector<i2i::DailyTraffic>& series,
                 const i2i::TrafficModelConfig& config) {
  double max_traffic = 1.0;
  for (const auto& d : series) {
    max_traffic = std::max(max_traffic, d.normal_traffic + d.abnormal_traffic);
  }
  std::printf("%4s %12s %12s  %s\n", "day", "normal", "abnormal",
              "traffic (#=normal, *=abnormal)");
  for (const auto& d : series) {
    const int n = static_cast<int>(50.0 * d.normal_traffic / max_traffic);
    const int a = static_cast<int>(50.0 * d.abnormal_traffic / max_traffic);
    std::string bar(static_cast<size_t>(n), '#');
    bar.append(static_cast<size_t>(a), '*');
    const char* marker = "";
    if (d.day == config.attack_start_day) marker = "  <- attack missions start";
    if (d.day == config.campaign_start_day) marker = "  <- marketing campaign";
    if (d.day == config.detection_day) marker = "  <- RICD detects, cleanup";
    if (d.day == config.delist_day) marker = "  <- sellers delist items";
    std::printf("%4d %12.0f %12.0f  %s%s\n", d.day, d.normal_traffic,
                d.abnormal_traffic, bar.c_str(), marker);
  }
}

int Run() {
  PrintHeader("Case study: attack group traffic across a marketing campaign",
              "Fig. 10 (Section VII; 13 items / 28 accounts in the paper)");

  // Part 1: the Fig. 10 timeline.
  i2i::TrafficModelConfig config;
  Rng rng(SeedFromEnv(7));
  auto series = i2i::SimulateCampaignTraffic(config, rng);
  RICD_CHECK(series.ok()) << series.status();
  PrintSeries(*series, config);

  // Part 2: detection on a pre-detection-day snapshot. One campaign-sized
  // group (28 accounts, 11 targets, 2 hot items — the paper's case), on a
  // small organic background.
  std::printf("\n--- RICD on the day-8 snapshot of this campaign ---\n");
  gen::BackgroundConfig background = gen::BackgroundConfigFor(
      ScaleFromEnv(gen::ScenarioScale::kSmall));
  gen::AttackConfig attack;
  attack.num_groups = 1;
  attack.workers_per_group = 28;
  attack.targets_per_group = 11;
  attack.hot_items_per_group = 2;
  attack.cautious_fraction = 0.0;
  attack.structure_evading_fraction = 0.0;
  attack.budget_evading_fraction = 0.0;
  attack.group_size_jitter = 0.0;
  auto scenario = gen::MakeScenario(
      background, attack, gen::OrganicConfigFor(gen::ScenarioScale::kSmall),
      SeedFromEnv(7));
  RICD_CHECK(scenario.ok()) << scenario.status();
  auto graph = graph::GraphBuilder::FromTable(scenario->table);
  RICD_CHECK(graph.ok()) << graph.status();

  core::FrameworkOptions options;
  options.params = PaperDefaultParams();
  core::RicdFramework ricd(options);
  auto result = ricd.RunOnGraph(*graph);
  RICD_CHECK(result.ok()) << result.status();

  const auto metrics =
      eval::Evaluate(*graph, result->detection, scenario->labels);
  std::printf("planted: %u accounts, %u target items\n",
              attack.workers_per_group, attack.targets_per_group);
  std::printf("detected groups: %zu; flagged nodes: %llu; precision %.3f, "
              "recall %.3f\n",
              result->detection.groups.size(),
              static_cast<unsigned long long>(metrics.output_nodes),
              metrics.precision, metrics.recall);

  // The I2I manipulation this cleanup undoes: score of the top target
  // against one of the ridden hot items, before cleanup.
  const auto& group = scenario->groups[0];
  graph::VertexId hot = 0;
  graph::VertexId target = 0;
  RICD_CHECK(graph->LookupItem(group.hot_items[0], &hot));
  RICD_CHECK(graph->LookupItem(group.targets[0], &target));
  i2i::I2iScorer scorer(*graph);
  std::printf("manipulated I2I-score(hot -> target) at detection time: %.4f\n",
              scorer.Score(hot, target));

  const auto related = scorer.RelatedItems(hot, 50);
  int targets_in_top10 = 0;
  for (const auto& r : related) {
    if (scenario->labels.IsAbnormalItem(graph->ExternalItemId(r.item))) {
      ++targets_in_top10;
    }
  }
  std::printf("planted targets inside the hot item's top-50 recommendation "
              "list: %d of 50\n",
              targets_in_top10);

  // User-facing damage: slate pollution among the hot item's real audience
  // before vs after the cleanup removes the attack edges.
  std::unordered_set<table::ItemId> targets(
      scenario->labels.abnormal_items.begin(),
      scenario->labels.abnormal_items.end());
  std::vector<graph::VertexId> audience;
  for (const graph::VertexId u : graph->ItemNeighbors(hot)) {
    if (!scenario->labels.IsAbnormalUser(graph->ExternalUserId(u))) {
      audience.push_back(u);
    }
    if (audience.size() >= 200) break;  // Sampling is enough.
  }
  const double polluted_before =
      i2i::RecommendationPollution(*graph, targets, audience, /*k=*/10);

  table::ClickTable cleaned = scenario->table.Filter(
      [&](const table::ClickRecord& r) {
        return !scenario->labels.IsAbnormalUser(r.user) &&
               !scenario->labels.IsAbnormalItem(r.item);
      });
  auto clean_graph = graph::GraphBuilder::FromTable(cleaned);
  RICD_CHECK(clean_graph.ok()) << clean_graph.status();
  std::vector<graph::VertexId> clean_audience;
  for (const graph::VertexId u : audience) {
    graph::VertexId mapped = 0;
    if (clean_graph->LookupUser(graph->ExternalUserId(u), &mapped)) {
      clean_audience.push_back(mapped);
    }
  }
  const double polluted_after = i2i::RecommendationPollution(
      *clean_graph, targets, clean_audience, /*k=*/10);
  std::printf("slate pollution among the hot item's real audience (top-10 "
              "slots): %.2f%% before cleanup, %.2f%% after\n",
              100.0 * polluted_before, 100.0 * polluted_after);

  obs::WorkloadScale workload_desc;
  workload_desc.scale = "case_study";
  workload_desc.seed = SeedFromEnv(7);
  workload_desc.users = graph->num_users();
  workload_desc.items = graph->num_items();
  workload_desc.edges = graph->num_edges();
  workload_desc.clicks = graph->total_clicks();
  FinishBench("bench_case_study", workload_desc);
  return 0;
}

}  // namespace
}  // namespace ricd::bench

int main() { return ricd::bench::Run(); }
