#ifndef RICD_GEN_SCENARIO_H_
#define RICD_GEN_SCENARIO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "gen/attack_injector.h"
#include "gen/background_generator.h"
#include "gen/label_set.h"
#include "gen/organic_communities.h"
#include "table/click_table.h"

namespace ricd::gen {

/// A fully materialized evaluation workload: organic clicks + injected
/// attacks (consolidated into one table) together with ground-truth labels.
struct Scenario {
  table::ClickTable table;
  LabelSet labels;
  std::vector<InjectedGroup> groups;
  std::vector<OrganicCommunity> organic_clubs;  // unlabeled hard negatives
  BackgroundConfig background_config;
  AttackConfig attack_config;
  OrganicCommunityConfig organic_config;
};

/// Size presets used across tests, benches and examples.
enum class ScenarioScale {
  kTiny,    // ~2k users — unit/integration tests
  kSmall,   // ~20k users — fast benches
  kMedium,  // ~80k users — default bench scale
  kLarge,   // ~200k users — scaling runs
  kXLarge,  // ~800k users — medium x10, the Fig. 8b scale-up runs
};

/// Returns calibrated configs for a preset scale.
BackgroundConfig BackgroundConfigFor(ScenarioScale scale);
AttackConfig AttackConfigFor(ScenarioScale scale);
OrganicCommunityConfig OrganicConfigFor(ScenarioScale scale);

/// Generates background + organic communities + attacks with the given
/// configs and merges them into one consolidated table.
Result<Scenario> MakeScenario(const BackgroundConfig& background_config,
                              const AttackConfig& attack_config,
                              const OrganicCommunityConfig& organic_config,
                              uint64_t seed);

/// Convenience: preset-scale scenario.
Result<Scenario> MakeScenario(ScenarioScale scale, uint64_t seed);

/// Human-readable name of a scale preset ("tiny", "small", ...).
const char* ScenarioScaleName(ScenarioScale scale);

/// Inverse of ScenarioScaleName: sets `*out` and returns true for a known
/// preset name, returns false (leaving `*out` untouched) otherwise.
bool ParseScenarioScale(std::string_view name, ScenarioScale* out);

}  // namespace ricd::gen

#endif  // RICD_GEN_SCENARIO_H_
