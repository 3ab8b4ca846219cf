// Extension bench (paper Section VIII future work): incremental detection
// on a dynamic click stream. An attack campaign is streamed day by day into
// a standing marketplace; the incremental module re-detects only the
// affected 2-hop region per batch and is compared against the cost of a
// from-scratch full rescan — the trade the paper motivates with the
// "Double 11" scenario, where every day of earlier detection saves losses.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "ricd/incremental.h"

namespace ricd::bench {
namespace {

int Run() {
  PrintHeader("Incremental detection on a dynamic click stream",
              "Section VIII future work (extension; no paper table)");

  const auto scale = ScaleFromEnv(gen::ScenarioScale::kSmall);
  const uint64_t seed = SeedFromEnv(42);

  // Standing marketplace from the shared workload path (RICD_SNAPSHOT
  // cache applies), plus one fresh campaign to stream in on top of it.
  BenchWorkload workload = MakeWorkload(scale, seed);
  Rng rng(seed ^ 0x1c2d3e4f);
  gen::AttackConfig attack = gen::AttackConfigFor(scale);
  // The standing table already contains one injected campaign whose workers
  // sit at the default id bases; give the streamed campaign its own range.
  attack.worker_id_base *= 2;
  attack.target_id_base *= 2;
  attack.num_groups = 2;
  attack.cautious_fraction = 0.0;
  attack.structure_evading_fraction = 0.0;
  attack.budget_evading_fraction = 0.0;
  auto injection =
      ricd::scenario::InjectCampaign(attack, workload.scenario.table, rng);
  RICD_CHECK(injection.ok()) << injection.status();

  // Split the campaign into 6 "days" (workers activate over time).
  constexpr int kDays = 6;
  std::vector<table::ClickTable> days(kDays);
  for (size_t i = 0; i < injection->attack_clicks.num_rows(); ++i) {
    days[i * kDays / injection->attack_clicks.num_rows()].Append(
        injection->attack_clicks.row(i));
  }

  core::FrameworkOptions options;
  options.params = PaperDefaultParams();
  core::IncrementalRicd incremental(options);

  const double bootstrap_s = TimedStage("bench.incremental.bootstrap", [&] {
    RICD_CHECK(incremental.Bootstrap(workload.scenario.table).ok());
  });
  std::printf("bootstrap: %llu edges, %.3f s (full-graph scan)\n\n",
              static_cast<unsigned long long>(incremental.num_edges()),
              bootstrap_s);

  std::printf("%4s %12s %14s %12s %14s %16s\n", "day", "batch rows",
              "region edges", "ingest(s)", "full rescan(s)", "attackers found");
  size_t attackers_found = 0;
  int detection_day = 0;
  int cheaper_days = 0;
  double ingest_total_s = 0.0;
  double rescan_total_s = 0.0;
  for (int day = 0; day < kDays; ++day) {
    Result<core::IncrementalUpdate> update = Status::Internal("not run");
    const double ingest_s = TimedStage("bench.incremental.ingest", [&] {
      update = incremental.Ingest(days[day]);
    });
    RICD_CHECK(update.ok()) << update.status();
    for (const auto u : update->newly_flagged_users) {
      if (injection->labels.IsAbnormalUser(u)) ++attackers_found;
    }
    if (attackers_found > 0 && detection_day == 0) detection_day = day + 1;

    // Cost of the naive alternative: full rescan of the standing table.
    Result<core::FrameworkResult> rescan = Status::Internal("not run");
    const double rescan_s = TimedStage("bench.incremental.full_rescan", [&] {
      core::RicdFramework full(options);
      rescan = full.Run(incremental.MaterializeTable());
    });
    RICD_CHECK(rescan.ok()) << rescan.status();
    if (ingest_s < rescan_s) ++cheaper_days;
    ingest_total_s += ingest_s;
    rescan_total_s += rescan_s;

    std::printf("%4d %12zu %14llu %12.3f %14.3f %11zu/%u\n", day + 1,
                days[day].num_rows(),
                static_cast<unsigned long long>(update->region_edges), ingest_s,
                rescan_s, attackers_found,
                attack.num_groups * attack.workers_per_group);
  }

  // The summary is built from the table above, never asserted ahead of it.
  std::printf("\n");
  if (detection_day > 0) {
    std::printf("first attackers flagged on stream day %d.\n", detection_day);
  } else {
    std::printf("no streamed attacker was flagged.\n");
  }
  const double cost_ratio =
      rescan_total_s > 0.0 ? ingest_total_s / rescan_total_s : 0.0;
  std::printf("per-batch regional detection cost %.0f%% of the full rescan "
              "over the stream (%.3f s vs %.3f s);\nit was cheaper than the "
              "rescan on %d of %d days.\n",
              100.0 * cost_ratio, ingest_total_s, rescan_total_s, cheaper_days,
              kDays);

  // Same machine-readable schema keys as every other bench: the standing
  // marketplace the stream was bootstrapped on.
  FinishBench("bench_incremental", DescribeWorkload(workload));
  return 0;
}

}  // namespace
}  // namespace ricd::bench

int main() { return ricd::bench::Run(); }
