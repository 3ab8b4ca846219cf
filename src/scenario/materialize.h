#ifndef RICD_SCENARIO_MATERIALIZE_H_
#define RICD_SCENARIO_MATERIALIZE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "gen/scenario.h"
#include "scenario/spec.h"
#include "table/click_table.h"

namespace ricd::scenario {

/// Materializes a spec into a full gen::Scenario: scale-calibrated
/// background (with the spec's skew override), organic communities, then
/// every attack campaign in spec order. Legacy campaigns (groups == 0)
/// draw from the shared generator stream exactly like gen::MakeScenario;
/// every other campaign runs its registered AttackStrategy on a dedicated
/// rng forked from (seed, campaign index, seed_salt), so a budget-0
/// campaign — or removing a campaign — leaves every other byte of the
/// scenario unchanged. Campaign id bases are offset per index so minted
/// accounts/items never collide across campaigns.
Result<gen::Scenario> Materialize(const ScenarioSpec& spec);

/// Sanctioned config-level entry for parameter-sweep benches
/// (bench_sensitivity, bench_case_study) that need to perturb raw generator
/// configs rather than named presets. Forwards to gen::MakeScenario; going
/// through this wrapper instead of calling the generator directly is what
/// the `ad-hoc-workload` lint rule enforces.
Result<gen::Scenario> MaterializeCustom(
    const gen::BackgroundConfig& background_config,
    const gen::AttackConfig& attack_config,
    const gen::OrganicCommunityConfig& organic_config, uint64_t seed);

/// Deterministic replay schedule implementing the spec's arrival pattern:
/// a permutation of [0, table.num_rows()) giving the order rows should be
/// streamed/ingested. The table itself is never reordered — graph vertex
/// ids are assigned in first-seen row order, so mutating the canonical
/// order would silently change dense ids and ranking tie-breaks.
std::vector<uint32_t> ArrivalOrder(const ScenarioSpec& spec,
                                   const table::ClickTable& table);

/// One scheduled arrival: the table row to replay and the logical
/// event-second it carries into the windowed serving layer.
struct ArrivalEvent {
  uint32_t row = 0;
  uint64_t ts = 0;
};

/// Timestamped replay schedule: ArrivalOrder's permutation with a
/// deterministic, non-decreasing event-second assigned positionally.
/// uniform / flash_sale / burst tick once per event (a featureless clock,
/// preserving their pre-window semantics); diurnal paces the events over
/// one 86400-second day following a 24-hour e-commerce load curve (integer
/// largest-remainder allocation — no floating point in the clock);
/// attack_burst_mid_window spaces organic events 8 seconds apart and
/// freezes the clock across the contiguous attack burst, so the whole
/// campaign lands inside one event-second mid-trace — the regime-shift
/// shape that exercises seal/evict and verdict retractions.
std::vector<ArrivalEvent> ArrivalSchedule(const ScenarioSpec& spec,
                                          const table::ClickTable& table);

}  // namespace ricd::scenario

#endif  // RICD_SCENARIO_MATERIALIZE_H_
