// The sanctioned shape: a bench that materializes a named registry preset
// (or goes through the MaterializeCustom wrapper for parameter sweeps).
// Nothing here may trip ad-hoc-workload.

#include "scenario/materialize.h"
#include "scenario/registry.h"

namespace ricd {

void RunBench() {
  auto spec = scenario::LoadScenario("ric_burst");
  auto scenario = scenario::Materialize(*spec);

  gen::BackgroundConfig background;
  gen::AttackConfig attack;
  gen::OrganicCommunityConfig clubs;
  auto custom = scenario::MaterializeCustom(background, attack, clubs, 42);
}

}  // namespace ricd
