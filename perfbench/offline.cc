// offline_medium: the paper's batch job — one RicdFramework::Run over the
// `baseline` preset at medium scale, engine pinned to min(4, nproc) workers
// by main(). Serve, window and TCP are idle here. verdict_latency_s is the
// batch job's input-to-verdict time: the median Run.

#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "detect.h"
#include "eval/metrics.h"
#include "ricd/framework.h"
#include "ricd/graph_generator.h"
#include "scenario/materialize.h"
#include "scenario/registry.h"

namespace ricd::perfbench {
namespace {

constexpr int kSetups = 7;
constexpr size_t kMinRepeats = 3;
constexpr size_t kMaxRepeats = 40;

// Detection-quality floors against the injected labels. For seeds 0-20 of
// the medium `baseline` preset they are the precision and recall
// RicdFramework::Run reached at the commit that introduced this benchmark,
// rounded down to 4 decimals. Other medium seeds get a floor well below
// every value seen over 50 of them (seeds 21-48, 103 and 21 random 31-bit
// seeds; lowest: precision 0.9778, recall 0.2281), since recall varies
// widely between seeds. Tiny smoke runs get the lowest over tiny seeds
// 0-20 there and no floor otherwise: some tiny seeds flag no one. A change
// that drops below a floor is a correctness regression, not a speed-up.
struct QualityFloor {
  double precision;
  double recall;
};
constexpr QualityFloor kMediumFloors[] = {
    {0.9951, 0.4939}, {0.9956, 0.5088}, {0.9920, 0.5413}, {1.0000, 0.4758},
    {0.9898, 0.4421}, {1.0000, 0.6197}, {0.9893, 0.4189}, {0.9885, 0.3853},
    {0.9947, 0.4578}, {1.0000, 0.5034}, {0.9914, 0.5484}, {0.9939, 0.4044},
    {0.9803, 0.5446}, {1.0000, 0.4465}, {0.9957, 0.5450}, {0.9957, 0.5342},
    {1.0000, 0.4095}, {0.9951, 0.4845}, {1.0000, 0.3682}, {1.0000, 0.5191},
    {0.9909, 0.4641}};
constexpr QualityFloor kMediumFloorOtherSeeds{0.90, 0.15};
constexpr QualityFloor kTinyFloor{0.9259, 0.2580};

QualityFloor FloorFor(uint64_t seed, bool tiny) {
  constexpr uint64_t kSeeds = sizeof(kMediumFloors) / sizeof(kMediumFloors[0]);
  if (tiny) return seed < kSeeds ? kTinyFloor : QualityFloor{0, 0};
  return seed < kSeeds ? kMediumFloors[seed] : kMediumFloorOtherSeeds;
}

Status CheckQuality(const gen::Scenario& scenario,
                    const core::FrameworkResult& result,
                    const QualityFloor& floor, Report* report) {
  RICD_ASSIGN_OR_RETURN(graph::BipartiteGraph graph,
                        core::GenerateGraph(scenario.table));
  const eval::Metrics m =
      eval::Evaluate(graph, result.detection, scenario.labels);
  char line[160];
  std::snprintf(line, sizeof(line),
                "eval: precision=%.4f recall=%.4f flagged_users=%zu "
                "flagged_items=%zu",
                m.precision, m.recall, result.ranked.users.size(),
                result.ranked.items.size());
  report->Note(line);
  if (m.precision < floor.precision || m.recall < floor.recall) {
    return Status::Internal("detection quality below the seed floor");
  }
  return Status::Ok();
}

}  // namespace

Status RunOfflineMedium(const RunOptions& options, Tracer* tracer,
                        Report* report) {
  const scenario::ScenarioSpec spec = scenario::BaselineSpec(
      ScaleFor(options, gen::ScenarioScale::kMedium), options.seed);

  // Set-up is materializing the scenario from the seed; done several times
  // so setup_s is a median, keeping the last copy.
  std::vector<double> setups;
  gen::Scenario scenario;
  for (int i = 0; i < kSetups; ++i) {
    scenario = gen::Scenario();
    Tracer::Span span(tracer, "gen.materialize");
    Result<gen::Scenario> made = scenario::Materialize(spec);
    setups.push_back(span.End());
    RICD_RETURN_IF_ERROR(made.status());
    scenario = std::move(made).value();
  }
  report->Note("workload: baseline rows=" +
               std::to_string(scenario.table.num_rows()));

  const core::RicdFramework framework{core::FrameworkOptions{}};

  if (!options.trace) {
    core::FrameworkResult first;
    RICD_ASSIGN_OR_RETURN(
        const std::vector<double> detect,
        TimeRuns(framework, scenario.table, kMinRepeats, kMaxRepeats,
                 options.seconds, &first, report));
    report->Check(CheckQuality(scenario, first,
                               FloorFor(options.seed, options.tiny), report),
                  "precision/recall floor");
    report->Add("setup_s", "s", Median(setups));
    report->Add("verdict_latency_s", "s", Median(detect));
    return Status::Ok();
  }

  // Traced: untraced Runs beside traced replays of them; the online layers
  // are idle in this workload and report 0.
  report->Add("gen.materialize_s", "s", Median(setups));
  RICD_ASSIGN_OR_RETURN(
      const double overhead,
      TraceRuns(framework, scenario.table, tracer, report));
  report->Add("trace.overhead_frac", "frac", overhead);
  return Status::Ok();
}

}  // namespace ricd::perfbench
