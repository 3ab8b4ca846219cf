#include "eval/redteam.h"

#include <memory>
#include <utility>

#include "baselines/copycatch.h"
#include "baselines/fraudar.h"
#include "common/string_util.h"
#include "eval/experiment.h"
#include "gen/attack_strategy.h"
#include "graph/graph_builder.h"
#include "obs/metrics.h"
#include "ricd/framework.h"
#include "ricd/ui_adapter.h"
#include "scenario/materialize.h"

namespace ricd::eval {
namespace {

/// Detector panel every sweep point is scored by. The stable short names
/// feed gauge names, so they must stay metric-name-safe (no dots).
std::vector<std::pair<std::string, std::unique_ptr<baselines::Detector>>>
MakePanel(const core::RicdParams& params) {
  std::vector<std::pair<std::string, std::unique_ptr<baselines::Detector>>>
      panel;
  core::FrameworkOptions options;
  options.params = params;
  panel.emplace_back("ricd", std::make_unique<core::RicdFramework>(options));
  panel.emplace_back("fraudar",
                     std::make_unique<core::ScreenedDetector>(
                         std::make_unique<baselines::Fraudar>(), params));
  panel.emplace_back("copycatch",
                     std::make_unique<core::ScreenedDetector>(
                         std::make_unique<baselines::CopyCatch>(), params));
  return panel;
}

}  // namespace

const std::vector<RedteamKnobSetting>& RedteamSweepGrid() {
  // Three settings per knob: weak, default-ish, strong. budget6 puts even
  // blatant crews below T_click = 12; group32 doubles the default crew;
  // camo60 spends most of the effort on disguise.
  static const std::vector<RedteamKnobSetting> grid = {
      {"budget", "budget6", 6.0},
      {"budget", "budget12", 12.0},
      {"budget", "budget24", 24.0},
      {"group_size", "group8", 8.0},
      {"group_size", "group16", 16.0},
      {"group_size", "group32", 32.0},
      {"camouflage_rate", "camo0", 0.0},
      {"camouflage_rate", "camo30", 0.3},
      {"camouflage_rate", "camo60", 0.6},
  };
  return grid;
}

Result<std::vector<RedteamPoint>> RunRedteam(const RedteamOptions& options) {
  std::vector<std::string> families = options.families;
  if (families.empty()) families = gen::AttackFamilyNames();
  for (const std::string& family : families) {
    RICD_ASSIGN_OR_RETURN(const gen::AttackStrategy* strategy,
                          gen::FindAttackFamily(family));
    (void)strategy;
  }

  std::vector<RedteamPoint> points;
  for (const std::string& family : families) {
    for (const RedteamKnobSetting& setting : RedteamSweepGrid()) {
      scenario::AttackSpec attack;
      attack.family = family;
      const std::string knob(setting.knob);
      if (knob == "budget") {
        attack.budget = static_cast<uint32_t>(setting.value);
      } else if (knob == "group_size") {
        attack.group_size = static_cast<uint32_t>(setting.value);
      } else {
        attack.camouflage_rate = setting.value;
      }

      scenario::ScenarioSpec spec = options.base;
      spec.attacks.clear();
      spec.attacks.push_back(attack);
      RICD_ASSIGN_OR_RETURN(gen::Scenario scenario,
                            scenario::Materialize(spec));
      RICD_ASSIGN_OR_RETURN(graph::BipartiteGraph graph,
                            graph::GraphBuilder::FromTable(scenario.table));

      for (auto& [detector_name, detector] : MakePanel(options.params)) {
        RICD_ASSIGN_OR_RETURN(
            ExperimentRow row,
            RunExperiment(*detector, graph, scenario.labels));
        RedteamPoint point;
        point.family = family;
        point.knob = knob;
        point.knob_value = setting.value;
        point.setting = setting.tag;
        point.detector = detector_name;
        point.metrics = row.metrics;
        point.elapsed_seconds = row.elapsed_seconds;
        if (options.log != nullptr) {
          *options.log << StringPrintf(
              "[redteam] %-18s %-10s %-10s precision=%.3f recall=%.3f "
              "f1=%.3f (%.2fs)\n",
              family.c_str(), setting.tag, detector_name.c_str(),
              point.metrics.precision, point.metrics.recall, point.metrics.f1,
              point.elapsed_seconds);
        }
        points.push_back(std::move(point));
      }
    }
  }
  return points;
}

void EmitRedteamGauges(const std::vector<RedteamPoint>& points) {
  auto& registry = obs::MetricsRegistry::Global();
  for (const RedteamPoint& point : points) {
    const std::string prefix =
        StringPrintf("bench.adversarial.%s.%s.%s", point.family.c_str(),
                     point.setting.c_str(), point.detector.c_str());
    registry.GetGauge(prefix + ".precision")->Set(point.metrics.precision);
    registry.GetGauge(prefix + ".recall")->Set(point.metrics.recall);
    registry.GetGauge(prefix + ".f1")->Set(point.metrics.f1);
  }
}

void PrintRedteamTable(std::ostream& os,
                       const std::vector<RedteamPoint>& points) {
  os << StringPrintf("%-18s %-16s %-10s %10s %10s %10s\n", "family",
                     "knob setting", "detector", "precision", "recall", "f1");
  std::string last_family;
  for (const RedteamPoint& point : points) {
    if (point.family != last_family && !last_family.empty()) os << "\n";
    last_family = point.family;
    os << StringPrintf("%-18s %-16s %-10s %10.3f %10.3f %10.3f\n",
                       point.family.c_str(), point.setting.c_str(),
                       point.detector.c_str(), point.metrics.precision,
                       point.metrics.recall, point.metrics.f1);
  }
}

}  // namespace ricd::eval
