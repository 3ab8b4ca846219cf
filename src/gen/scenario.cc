#include "gen/scenario.h"

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ricd::gen {

BackgroundConfig BackgroundConfigFor(ScenarioScale scale) {
  BackgroundConfig config;
  switch (scale) {
    case ScenarioScale::kTiny:
      config.num_users = 2000;
      config.num_items = 500;
      break;
    case ScenarioScale::kSmall:
      config.num_users = 20000;
      config.num_items = 4000;
      break;
    case ScenarioScale::kMedium:
      config.num_users = 80000;
      config.num_items = 16000;
      break;
    case ScenarioScale::kLarge:
      config.num_users = 200000;
      config.num_items = 40000;
      break;
    case ScenarioScale::kXLarge:
      config.num_users = 800000;
      config.num_items = 160000;
      break;
  }
  return config;
}

AttackConfig AttackConfigFor(ScenarioScale scale) {
  AttackConfig config;
  switch (scale) {
    case ScenarioScale::kTiny:
      config.num_groups = 3;
      config.workers_per_group = 16;
      config.targets_per_group = 8;
      break;
    case ScenarioScale::kSmall:
      config.num_groups = 8;
      config.workers_per_group = 20;
      config.targets_per_group = 10;
      break;
    case ScenarioScale::kMedium:
      config.num_groups = 12;
      config.workers_per_group = 24;
      config.targets_per_group = 12;
      break;
    case ScenarioScale::kLarge:
      config.num_groups = 20;
      config.workers_per_group = 28;
      config.targets_per_group = 12;
      break;
    case ScenarioScale::kXLarge:
      config.num_groups = 120;
      config.workers_per_group = 24;
      config.targets_per_group = 12;
      break;
  }
  return config;
}

OrganicCommunityConfig OrganicConfigFor(ScenarioScale scale) {
  OrganicCommunityConfig config;
  switch (scale) {
    case ScenarioScale::kTiny:
      config.num_clubs = 3;
      config.users_per_club = 15;
      config.num_tight_clubs = 1;
      break;
    case ScenarioScale::kSmall:
      config.num_clubs = 8;
      config.users_per_club = 30;
      config.num_tight_clubs = 3;
      break;
    case ScenarioScale::kMedium:
      config.num_clubs = 16;
      config.users_per_club = 30;
      config.num_tight_clubs = 5;
      break;
    case ScenarioScale::kLarge:
      config.num_clubs = 24;
      config.users_per_club = 40;
      config.num_tight_clubs = 8;
      break;
    case ScenarioScale::kXLarge:
      config.num_clubs = 160;
      config.users_per_club = 30;
      config.num_tight_clubs = 5;
      break;
  }
  return config;
}

Result<Scenario> MakeScenario(const BackgroundConfig& background_config,
                              const AttackConfig& attack_config,
                              const OrganicCommunityConfig& organic_config,
                              uint64_t seed) {
  RICD_TRACE_SPAN("gen.scenario");
  Rng rng(seed);
  Scenario scenario;
  scenario.background_config = background_config;
  scenario.attack_config = attack_config;
  scenario.organic_config = organic_config;

  RICD_ASSIGN_OR_RETURN(scenario.table,
                        GenerateBackground(background_config, rng));

  RICD_ASSIGN_OR_RETURN(
      OrganicCommunityResult organic,
      GenerateOrganicCommunities(organic_config, scenario.table, rng));

  // Attacks see background + clubs, so hot-item selection and camouflage
  // pools match what the final graph will contain.
  table::ClickTable with_clubs = scenario.table;
  with_clubs.AppendTable(organic.clicks);
  with_clubs.ConsolidateDuplicates();

  RICD_ASSIGN_OR_RETURN(InjectionResult injection,
                        InjectAttacks(attack_config, with_clubs, rng));

  scenario.table = std::move(with_clubs);
  scenario.table.AppendTable(injection.attack_clicks);
  scenario.table.ConsolidateDuplicates();
  scenario.labels = std::move(injection.labels);
  scenario.groups = std::move(injection.groups);
  scenario.organic_clubs = std::move(organic.clubs);

  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter(obs::metric_names::kGenScenarioRows)->Add(scenario.table.num_rows());
  registry.GetCounter(obs::metric_names::kGenScenarioInjectedGroups)
      ->Add(scenario.groups.size());
  return scenario;
}

Result<Scenario> MakeScenario(ScenarioScale scale, uint64_t seed) {
  return MakeScenario(BackgroundConfigFor(scale), AttackConfigFor(scale),
                      OrganicConfigFor(scale), seed);
}

const char* ScenarioScaleName(ScenarioScale scale) {
  switch (scale) {
    case ScenarioScale::kTiny:
      return "tiny";
    case ScenarioScale::kSmall:
      return "small";
    case ScenarioScale::kMedium:
      return "medium";
    case ScenarioScale::kLarge:
      return "large";
    case ScenarioScale::kXLarge:
      return "xlarge";
  }
  return "unknown";
}

bool ParseScenarioScale(std::string_view name, ScenarioScale* out) {
  for (const ScenarioScale scale :
       {ScenarioScale::kTiny, ScenarioScale::kSmall, ScenarioScale::kMedium,
        ScenarioScale::kLarge, ScenarioScale::kXLarge}) {
    if (name == ScenarioScaleName(scale)) {
      *out = scale;
      return true;
    }
  }
  return false;
}

}  // namespace ricd::gen
