#include "scenario/registry.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace ricd::scenario {
namespace {

AttackSpec LegacyCampaign() {
  AttackSpec attack;
  attack.family = "derived_ric";
  attack.groups = 0;  // marker: scale-calibrated AttackConfigFor(scale)
  return attack;
}

AttackSpec Campaign(const char* family, uint32_t groups, uint32_t group_size,
                    uint32_t targets, uint32_t budget, double camouflage) {
  AttackSpec attack;
  attack.family = family;
  attack.groups = groups;
  attack.group_size = group_size;
  attack.targets_per_group = targets;
  attack.budget = budget;
  attack.camouflage_rate = camouflage;
  return attack;
}

/// Preset registry. Keep alphabetical; every preset must materialize at
/// tiny scale in bench_adversarial's preset smoke phase, which is what
/// keeps this table from rotting.
std::vector<ScenarioSpec> BuildPresets() {
  std::vector<ScenarioSpec> presets;

  {
    // The workhorse: the pre-registry default workload of every bench —
    // scale-calibrated background + organic clubs + the paper's campaign.
    ScenarioSpec spec;
    spec.name = "baseline";
    spec.scale = gen::ScenarioScale::kMedium;
    spec.attacks.push_back(LegacyCampaign());
    presets.push_back(std::move(spec));
  }
  {
    // All three registered families at once on one small graph: the
    // union-robustness scenario (RecAD-style single-harness evaluation).
    ScenarioSpec spec;
    spec.name = "adversarial_mix";
    spec.scale = gen::ScenarioScale::kSmall;
    spec.attacks.push_back(Campaign("derived_ric", 4, 16, 8, 24, 0.2));
    spec.attacks.push_back(Campaign("covisit_poison", 3, 16, 4, 24, 0.3));
    spec.attacks.push_back(Campaign("uplift_camouflage", 3, 16, 4, 10, 0.6));
    presets.push_back(std::move(spec));
  }
  {
    // Fang et al. co-visit poisoning as the sole threat: star-shaped fake
    // co-click edges against the I2I scorer, no biclique to extract.
    ScenarioSpec spec;
    spec.name = "covisit_storm";
    spec.scale = gen::ScenarioScale::kTiny;
    spec.attacks.push_back(Campaign("covisit_poison", 4, 20, 6, 24, 0.3));
    presets.push_back(std::move(spec));
  }
  {
    // Hot-skewed organic traffic arriving sale-first, with the standard
    // campaign hidden inside the rush — the serving-layer stress shape.
    ScenarioSpec spec;
    spec.name = "flash_sale";
    spec.scale = gen::ScenarioScale::kSmall;
    spec.skew = 1.6;
    spec.arrival = ArrivalPattern::kFlashSale;
    spec.attacks.push_back(LegacyCampaign());
    presets.push_back(std::move(spec));
  }
  {
    // Attack-free control at the default bench scale (false-positive floor:
    // anything flagged here is organic by construction).
    ScenarioSpec spec;
    spec.name = "medium_clean";
    spec.scale = gen::ScenarioScale::kMedium;
    presets.push_back(std::move(spec));
  }
  {
    // The pinned-floor scenario: a heavier-than-default RIC campaign whose
    // clicks arrive as one contiguous burst. tests/robustness_floor_test.cc
    // asserts RICD (and the FRAUDAR/CopyCatch baselines) against committed
    // precision/recall floors on exactly this preset — do not retune it
    // without re-pinning the floors (DESIGN.md §13). Deliberately 3 groups:
    // at 4+ the injector's style fractions promote crews to cautious /
    // structure-evading and the merged candidate collapses under square
    // pruning at tiny scale (the documented blind spot) — a floor scenario
    // must sit on the detectable side of that cliff.
    ScenarioSpec spec;
    spec.name = "ric_burst";
    spec.scale = gen::ScenarioScale::kTiny;
    spec.arrival = ArrivalPattern::kBurst;
    spec.attacks.push_back(Campaign("derived_ric", 3, 18, 8, 24, 0.2));
    presets.push_back(std::move(spec));
  }
  {
    // The windowed-serving shape: ric_burst's campaign (same deliberate
    // 3 groups — see above) but with attack_burst_mid_window arrivals, so
    // the whole campaign compresses into one event-second mid-trace while
    // organic traffic ticks the clock forward. Under window retention this
    // drives seal/evict churn and verdict retractions; it is the workload
    // behind tests/window_test.cc's windowed≡offline differential and
    // serve_stress_test's ingest-during-detection case.
    ScenarioSpec spec;
    spec.name = "regime_shift";
    spec.scale = gen::ScenarioScale::kTiny;
    spec.arrival = ArrivalPattern::kAttackBurstMidWindow;
    spec.attacks.push_back(Campaign("derived_ric", 3, 18, 8, 24, 0.2));
    presets.push_back(std::move(spec));
  }
  {
    // Maximum-camouflage uplift crews below the T_click threshold: the
    // family behavioural screening is weakest against.
    ScenarioSpec spec;
    spec.name = "stealth_uplift";
    spec.scale = gen::ScenarioScale::kTiny;
    spec.attacks.push_back(Campaign("uplift_camouflage", 3, 18, 6, 10, 0.6));
    presets.push_back(std::move(spec));
  }
  {
    // Attack-free control at unit-test scale.
    ScenarioSpec spec;
    spec.name = "tiny_clean";
    spec.scale = gen::ScenarioScale::kTiny;
    presets.push_back(std::move(spec));
  }
  return presets;
}

const std::vector<ScenarioSpec>& Presets() {
  static const std::vector<ScenarioSpec> presets = BuildPresets();
  return presets;
}

}  // namespace

std::vector<std::string> ScenarioNames() {
  std::vector<std::string> names;
  names.reserve(Presets().size());
  for (const ScenarioSpec& spec : Presets()) names.push_back(spec.name);
  std::sort(names.begin(), names.end());
  return names;
}

Result<ScenarioSpec> FindScenario(std::string_view name) {
  for (const ScenarioSpec& spec : Presets()) {
    if (spec.name == name) return spec;
  }
  std::string known;
  for (const std::string& n : ScenarioNames()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return Status::NotFound(
      StringPrintf("unknown scenario '%.*s' (known: %s)",
                   static_cast<int>(name.size()), name.data(), known.c_str()));
}

Result<ScenarioSpec> LoadScenario(const std::string& name_or_path) {
  auto preset = FindScenario(name_or_path);
  if (preset.ok()) return preset;
  std::ifstream in(name_or_path, std::ios::binary);
  if (!in) return preset;  // keep the "unknown scenario" message
  std::ostringstream text;
  text << in.rdbuf();
  return ParseScenarioSpec(text.str());
}

ScenarioSpec BaselineSpec(gen::ScenarioScale scale, uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "baseline";
  spec.scale = scale;
  spec.seed = seed;
  spec.attacks.push_back(LegacyCampaign());
  return spec;
}

}  // namespace ricd::scenario
