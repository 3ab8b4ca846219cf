// Sharded graph engine scaling: materializes a 10x-scale workload (the
// RICD_SCALE preset's background/attack/community configs with users,
// items, campaigns and clubs multiplied by 10 — 800k users / 160k items at
// the default medium), runs the monolithic pipeline once as the reference,
// then the sharded pipeline at 2/4/8 shards plus a spilled 4-shard pass.
// Every sharded run must be bit-identical to the monolithic one (the
// determinism contract of DESIGN.md §14); wall clocks and per-shard-count
// speedups land in the bench record as `bench.sharded.*` so the perf
// trajectory tracks sharding efficiency PR over PR.
//
// RICD_ASSERT_SHARD_SPEEDUP=<x> turns the recorded 8-shard speedup into a
// hard assertion, gated on >= 4 hardware threads like
// bench_parallel_scaling (the serial phases — global id assignment and the
// cross-shard merge — bound the achievable ratio below N).

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "obs/metric_names.h"
#include "ricd/sharded_framework.h"
#include "shard/sharded_graph.h"

namespace ricd::bench {
namespace {

/// The RICD_SCALE preset, multiplied by 10 on every axis that grows the
/// table: background population, attack campaigns, organic clubs. Goes
/// through the sanctioned MaterializeCustom sweep entry (the workload is
/// reproducible from (scale, seed) alone).
gen::Scenario MakeTenfoldScenario(gen::ScenarioScale scale, uint64_t seed) {
  gen::BackgroundConfig background = gen::BackgroundConfigFor(scale);
  background.num_users *= 10;
  background.num_items *= 10;
  gen::AttackConfig attack = gen::AttackConfigFor(scale);
  attack.num_groups *= 10;
  gen::OrganicCommunityConfig clubs = gen::OrganicConfigFor(scale);
  clubs.num_clubs *= 10;
  auto scenario = scenario::MaterializeCustom(background, attack, clubs, seed);
  RICD_CHECK(scenario.ok()) << scenario.status();
  return std::move(scenario).value();
}

struct TimedRun {
  core::FrameworkResult result;
  double seconds = 0.0;
};

TimedRun RunAtShards(const core::FrameworkOptions& options,
                     const table::ClickTable& table, uint32_t shards,
                     const char* spill_prefix) {
  char histogram_name[64];
  std::snprintf(histogram_name, sizeof(histogram_name),
                "bench.sharded.run_s%u_seconds", shards);
  const core::ShardedRicd pipeline(options, shards);
  TimedRun run;
  run.seconds = TimedStage(histogram_name, [&] {
    auto result = spill_prefix == nullptr
                      ? pipeline.Run(table)
                      : pipeline.RunSpilled(table, spill_prefix);
    RICD_CHECK(result.ok()) << result.status();
    run.result = std::move(result).value();
  });
  return run;
}

bool SameResult(const core::FrameworkResult& a, const core::FrameworkResult& b) {
  if (a.detection.groups.size() != b.detection.groups.size()) return false;
  for (size_t i = 0; i < a.detection.groups.size(); ++i) {
    if (a.detection.groups[i].users != b.detection.groups[i].users ||
        a.detection.groups[i].items != b.detection.groups[i].items) {
      return false;
    }
  }
  if (a.ranked.users.size() != b.ranked.users.size() ||
      a.ranked.items.size() != b.ranked.items.size()) {
    return false;
  }
  for (size_t i = 0; i < a.ranked.users.size(); ++i) {
    if (a.ranked.users[i].user != b.ranked.users[i].user ||
        a.ranked.users[i].external_id != b.ranked.users[i].external_id ||
        a.ranked.users[i].risk != b.ranked.users[i].risk) {
      return false;
    }
  }
  for (size_t i = 0; i < a.ranked.items.size(); ++i) {
    if (a.ranked.items[i].item != b.ranked.items[i].item ||
        a.ranked.items[i].external_id != b.ranked.items[i].external_id ||
        a.ranked.items[i].risk != b.ranked.items[i].risk) {
      return false;
    }
  }
  return a.feedback_rounds_used == b.feedback_rounds_used &&
         a.effective_params.k1 == b.effective_params.k1 &&
         a.effective_params.k2 == b.effective_params.k2 &&
         a.effective_params.alpha == b.effective_params.alpha &&
         a.effective_params.t_hot == b.effective_params.t_hot &&
         a.effective_params.t_click == b.effective_params.t_click &&
         a.extraction_stats.users_removed_core ==
             b.extraction_stats.users_removed_core &&
         a.extraction_stats.items_removed_core ==
             b.extraction_stats.items_removed_core &&
         a.extraction_stats.users_removed_square ==
             b.extraction_stats.users_removed_square &&
         a.extraction_stats.items_removed_square ==
             b.extraction_stats.items_removed_square &&
         a.extraction_stats.sweeps_run == b.extraction_stats.sweeps_run &&
         a.screening_stats.users_removed == b.screening_stats.users_removed &&
         a.screening_stats.items_removed == b.screening_stats.items_removed &&
         a.screening_stats.groups_dropped == b.screening_stats.groups_dropped;
}

int Main() {
  PrintHeader("sharded graph engine: monolithic vs 2/4/8 shards at 10x scale",
              "DESIGN.md §14 determinism contract + Section V-D complexity");
  const auto scale = ScaleFromEnv(gen::ScenarioScale::kMedium);
  const uint64_t seed = SeedFromEnv(42);
  const gen::Scenario scenario = MakeTenfoldScenario(scale, seed);

  core::FrameworkOptions options;
  options.params = PaperDefaultParams();
  // Derive T_hot from the 80/20 rule at this scale; the sharded pipeline
  // must resolve the identical threshold from global item totals.
  options.params.t_hot = 0;

  // The graph is built once here only to describe the workload; each
  // pipeline run below builds its own (build time is part of what shards
  // parallelize, so it belongs inside the timed section).
  auto described = graph::GraphBuilder::FromTable(scenario.table);
  RICD_CHECK(described.ok()) << described.status();
  char scale_name[32];
  std::snprintf(scale_name, sizeof(scale_name), "x10%s",
                gen::ScenarioScaleName(scale));
  std::printf("workload: scale=%s seed=%" PRIu64
              " users=%u items=%u edges=%llu clicks=%llu\n\n",
              scale_name, seed, described->num_users(), described->num_items(),
              static_cast<unsigned long long>(described->num_edges()),
              static_cast<unsigned long long>(described->total_clicks()));
  obs::WorkloadScale desc;
  desc.scale = scale_name;
  desc.seed = seed;
  desc.users = described->num_users();
  desc.items = described->num_items();
  desc.edges = described->num_edges();
  desc.clicks = described->total_clicks();

  const TimedRun mono = RunAtShards(options, scenario.table, 1, nullptr);
  std::printf("shards=1 (monolithic)  run=%.3fs  groups=%zu  flagged=%zu\n",
              mono.seconds, mono.result.detection.groups.size(),
              mono.result.detection.NumFlagged());

  obs::Gauge* balance = obs::MetricsRegistry::Global().GetGauge(
      obs::metric_names::kShardBalanceRatio);
  const std::vector<uint32_t> shard_counts = {2, 4, 8};
  double best_seconds = mono.seconds;
  for (const uint32_t shards : shard_counts) {
    const TimedRun run = RunAtShards(options, scenario.table, shards, nullptr);
    const double speedup =
        run.seconds > 0.0 ? mono.seconds / run.seconds : 0.0;
    std::printf("shards=%u  run=%.3fs  speedup=%.2fx  balance_ratio=%.3f\n",
                shards, run.seconds, speedup, balance->Value());
    RICD_CHECK(SameResult(mono.result, run.result))
        << "sharded output diverged from monolithic at " << shards
        << " shards";
    char gauge_name[64];
    std::snprintf(gauge_name, sizeof(gauge_name),
                  "bench.sharded.speedup_s%u", shards);
    obs::MetricsRegistry::Global().GetGauge(gauge_name)->Set(speedup);
    if (run.seconds < best_seconds) best_seconds = run.seconds;
  }

  // Spill pass: the same 4-shard run through the snapshot spill/reload
  // path, manifest-verified — the bounded-memory mode stays bit-identical
  // too (and keeps the spill format exercised at scale).
  const char* spill_prefix = "bench_sharded_spill";
  const TimedRun spilled = RunAtShards(options, scenario.table, 4, spill_prefix);
  auto verified = shard::VerifyShardManifest(spill_prefix);
  RICD_CHECK(verified.ok()) << verified.status();
  RICD_CHECK(SameResult(mono.result, spilled.result))
      << "spilled 4-shard output diverged from monolithic";
  std::printf("shards=4 (spilled)  run=%.3fs  manifest=%u shard(s) verified\n",
              spilled.seconds, *verified);

  std::printf("bit-identity: OK across {1,2,4,8} shards + spilled run "
              "(%zu groups, %zu ranked users)\n",
              mono.result.detection.groups.size(),
              mono.result.ranked.users.size());

  const double best_speedup =
      best_seconds > 0.0 ? mono.seconds / best_seconds : 0.0;
  obs::MetricsRegistry::Global()
      .GetGauge("bench.sharded.speedup_best")
      ->Set(best_speedup);
  std::printf("best speedup: %.2fx (mono=%.3fs, best=%.3fs)\n", best_speedup,
              mono.seconds, best_seconds);

  int rc = 0;
  const char* assert_env = std::getenv("RICD_ASSERT_SHARD_SPEEDUP");
  if (assert_env != nullptr && assert_env[0] != '\0') {
    const double required = std::strtod(assert_env, nullptr);
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw < 4) {
      std::printf("speedup assertion SKIPPED: host has %u hardware threads "
                  "(< 4); bit-identity was still asserted and the ratios "
                  "recorded.\n",
                  hw);
    } else if (best_speedup < required) {
      std::printf("speedup assertion FAILED: %.2fx < required %.2fx\n",
                  best_speedup, required);
      rc = 1;
    } else {
      std::printf("speedup assertion OK: %.2fx >= %.2fx\n", best_speedup,
                  required);
    }
  }

  FinishBench("bench_sharded", desc);
  return rc;
}

}  // namespace
}  // namespace ricd::bench

int main() { return ricd::bench::Main(); }
