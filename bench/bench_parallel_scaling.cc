// Parallel pruning scaling: runs the full extraction at 1, 2, and 4
// workers, checks groups, ranking, extraction stats and the square-pruning
// work counters (witness skips included) are identical (DESIGN.md §9), and
// records the 4-vs-1 worker speedup and the serial-recheck share in the
// bench record.
//
// The serial-recheck share is round_rechecks / scratch_reuses: the fraction
// of Lemma-2 evaluations that the commit walk had to repeat on one thread
// because a witness died. Like every work counter here it is a pure
// function of the workload, the same at every worker count and on every
// host; the trajectory gate compares round_rechecks exactly. The speedup
// is only ever recorded.

#include <array>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "check/diff_result.h"
#include "common/logging.h"
#include "engine/worker_engine.h"
#include "obs/metric_names.h"
#include "ricd/extension_biclique.h"
#include "ricd/framework.h"
#include "ricd/identification.h"

namespace ricd::bench {
namespace {

/// Square-pruning work counters, read as deltas over one extraction.
constexpr std::array<const char*, 7> kWorkCounters = {
    obs::metric_names::kRicdExtractionTwoHopEntries,
    obs::metric_names::kRicdExtractionRoundRechecks,
    obs::metric_names::kRicdExtractionScratchReuses,
    obs::metric_names::kRicdExtractionWitnessSkips,
    obs::metric_names::kRicdExtractionRounds,
    obs::metric_names::kRicdExtractionDenseWords,
    obs::metric_names::kRicdExtractionParallelRechecks};
constexpr size_t kRechecks = 1;     // round_rechecks
constexpr size_t kEvaluations = 2;  // scratch_reuses

struct RunResult {
  core::FrameworkResult result;  // groups, ranking, extraction counters
  double seconds = 0.0;
  std::array<uint64_t, kWorkCounters.size()> work{};  // kWorkCounters order
};

RunResult RunAtWorkers(const BenchWorkload& workload, size_t workers) {
  engine::WorkerEngine engine(workers);
  core::ExtensionBicliqueExtractor extractor(PaperDefaultParams(), &engine);
  char histogram_name[64];
  std::snprintf(histogram_name, sizeof(histogram_name),
                "bench.parallel.extract_w%zu_seconds", workers);
  auto& registry = obs::MetricsRegistry::Global();
  RunResult run;
  for (size_t c = 0; c < kWorkCounters.size(); ++c) {
    run.work[c] = registry.GetCounter(kWorkCounters[c])->Value();
  }
  core::FrameworkResult& result = run.result;
  run.seconds = TimedStage(histogram_name, [&] {
    auto groups = extractor.Extract(workload.graph, &result.extraction_stats);
    RICD_CHECK(groups.ok()) << groups.status();
    result.detection.groups = std::move(groups).value();
  });
  for (size_t c = 0; c < kWorkCounters.size(); ++c) {
    run.work[c] = registry.GetCounter(kWorkCounters[c])->Value() - run.work[c];
  }
  result.ranked = core::RankByRisk(workload.graph, result.detection.groups);
  return run;
}

int Main() {
  PrintHeader("parallel pruning scaling: extraction at 1/2/4 workers",
              "Section V-D complexity + deterministic parallel schedule");
  const auto scale = ScaleFromEnv(gen::ScenarioScale::kMedium);
  const uint64_t seed = SeedFromEnv(42);
  const BenchWorkload workload = MakeWorkload(scale, seed);

  const std::vector<size_t> worker_counts = {1, 2, 4};
  std::vector<RunResult> runs;
  runs.reserve(worker_counts.size());
  for (const size_t workers : worker_counts) {
    runs.push_back(RunAtWorkers(workload, workers));
    const RunResult& run = runs.back();
    const core::ExtractionStats& stats = run.result.extraction_stats;
    std::printf("workers=%zu  extract=%.3fs  groups=%zu  square_removed=%u/%u\n",
                workers, run.seconds, run.result.detection.groups.size(),
                stats.users_removed_square, stats.items_removed_square);
    for (size_t c = 0; c < kWorkCounters.size(); ++c) {
      std::printf("  %s=%llu\n", kWorkCounters[c],
                  static_cast<unsigned long long>(run.work[c]));
    }
  }

  // Determinism contract: every worker count yields the same groups,
  // business-facing ranking and extraction counters.
  for (size_t i = 1; i < runs.size(); ++i) {
    const Status diff =
        check::DiffPipelineResult(runs[0].result, runs[i].result);
    RICD_CHECK(diff.ok()) << "extraction output diverged between "
                          << worker_counts[0] << " and " << worker_counts[i]
                          << " workers: " << diff;
  }
  std::printf("bit-identity: OK across {1,2,4} workers (%zu groups, "
              "%zu ranked users)\n",
              runs[0].result.detection.groups.size(),
              runs[0].result.ranked.users.size());

  // The work counters depend only on the workload, so any difference
  // between worker counts is a schedule bug.
  int rc = 0;
  for (size_t i = 1; i < runs.size(); ++i) {
    for (size_t c = 0; c < kWorkCounters.size(); ++c) {
      if (runs[i].work[c] == runs[0].work[c]) continue;
      std::printf("work-counter assertion FAILED: %s=%llu at %zu workers, "
                  "%llu at %zu\n",
                  kWorkCounters[c],
                  static_cast<unsigned long long>(runs[i].work[c]),
                  worker_counts[i],
                  static_cast<unsigned long long>(runs[0].work[c]),
                  worker_counts[0]);
      rc = 1;
    }
  }
  if (rc == 0) {
    std::printf("work counters: OK, identical across {1,2,4} workers\n");
  }

  const double speedup =
      runs[2].seconds > 0.0 ? runs[0].seconds / runs[2].seconds : 0.0;
  std::printf("speedup 4v1: %.2fx (1w=%.3fs, 4w=%.3fs)\n", speedup,
              runs[0].seconds, runs[2].seconds);
  obs::MetricsRegistry::Global()
      .GetGauge("bench.parallel.speedup_4v1")
      ->Set(speedup);

  const uint64_t rechecks = runs[2].work[kRechecks];
  const uint64_t evaluations = runs[2].work[kEvaluations];
  const double recheck_share =
      evaluations > 0 ? static_cast<double>(rechecks) /
                            static_cast<double>(evaluations)
                      : 0.0;
  std::printf("serial-recheck share at 4 workers: %.6f (%llu rechecks of "
              "%llu evaluations)\n",
              recheck_share, static_cast<unsigned long long>(rechecks),
              static_cast<unsigned long long>(evaluations));
  obs::MetricsRegistry::Global()
      .GetGauge("bench.parallel.recheck_share_4w")
      ->Set(recheck_share);

  FinishBench("bench_parallel_scaling", DescribeWorkload(workload));
  return rc;
}

}  // namespace
}  // namespace ricd::bench

int main() { return ricd::bench::Main(); }
