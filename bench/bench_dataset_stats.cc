// Reproduces Table I (data scale), Table II (data statistics) and
// Fig. 2a/2b (click distributions) of the paper on the synthetic
// TaoBao-shaped workload.
//
// Scale with RICD_SCALE=tiny|small|medium|large|xlarge (default: medium,
// ~1/100 of the paper's 20M-user table; xlarge is medium x10). Absolute numbers scale with the workload;
// the reproduced result is the *shape*: heavy-tailed distributions on both
// sides, item-side stdev an order of magnitude above the mean, and an
// 80%-mass hot threshold several times the mean item clicks (paper:
// T_hot = 1320 vs avg 54.9).

#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"
#include "common/string_util.h"
#include "graph/hot_items.h"
#include "table/table_stats.h"

namespace ricd::bench {
namespace {

void PrintHistogram(const char* title,
                    const std::vector<table::HistogramBucket>& buckets) {
  std::printf("%s\n", title);
  uint64_t max_count = 1;
  for (const auto& b : buckets) max_count = std::max(max_count, b.count);
  for (const auto& b : buckets) {
    if (b.count == 0) continue;
    const int width = static_cast<int>(
        60.0 * static_cast<double>(b.count) / static_cast<double>(max_count));
    std::printf("  [%8llu, %8llu) %10s |%.*s\n",
                static_cast<unsigned long long>(b.lower),
                static_cast<unsigned long long>(b.upper),
                FormatWithCommas(b.count).c_str(), width,
                "############################################################");
  }
  std::printf("\n");
}

int Run() {
  PrintHeader("Dataset scale and statistics of the synthetic click table",
              "Table I, Table II, Fig. 2a, Fig. 2b");

  const auto scale = ScaleFromEnv(gen::ScenarioScale::kMedium);
  const auto workload = MakeWorkload(scale, SeedFromEnv(42));
  const auto stats = table::ComputeTableStats(workload.scenario.table);

  std::printf("--- Table I: data scale ---\n");
  std::printf("%12s %12s %12s %14s\n", "User", "Item", "Edge", "Total_click");
  std::printf("%12s %12s %12s %14s\n", FormatWithCommas(stats.num_users).c_str(),
              FormatWithCommas(stats.num_items).c_str(),
              FormatWithCommas(stats.num_edges).c_str(),
              FormatWithCommas(stats.total_clicks).c_str());
  std::printf("(paper, 100x scale: 20M users, 4M items, 90M edges, 200M clicks)\n\n");

  std::printf("--- Table II: data statistics ---\n");
  std::printf("%6s %10s %10s %10s\n", "", "Avg_clk", "Avg_cnt", "Stdev");
  std::printf("%6s %10.2f %10.2f %10.2f\n", "User", stats.user_side.avg_clicks,
              stats.user_side.avg_degree, stats.user_side.stdev_clicks);
  std::printf("%6s %10.2f %10.2f %10.2f\n", "Item", stats.item_side.avg_clicks,
              stats.item_side.avg_degree, stats.item_side.stdev_clicks);
  std::printf("(paper: user 11.35 / 4.32 / 33.34, item 54.94 / 20.49 / 992.78)\n\n");

  const uint64_t t_hot =
      graph::DeriveHotThreshold(workload.graph, graph::kHotClickMass);
  std::printf("hot threshold from the 80%% click-mass rule: T_hot = %llu "
              "(%.1fx the mean item clicks; paper: 1320 = 24x)\n\n",
              static_cast<unsigned long long>(t_hot),
              static_cast<double>(t_hot) / stats.item_side.avg_clicks);

  PrintHistogram("--- Fig. 2a: distribution of items' clicks (log2 buckets) ---",
                 table::ItemClickHistogram(workload.scenario.table));
  PrintHistogram("--- Fig. 2b: distribution of users' clicks (log2 buckets) ---",
                 table::UserClickHistogram(workload.scenario.table));
  FinishBench("bench_dataset_stats", DescribeWorkload(workload));
  return 0;
}

}  // namespace
}  // namespace ricd::bench

int main() { return ricd::bench::Run(); }
