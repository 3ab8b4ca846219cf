#include "scenario/materialize.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "gen/attack_strategy.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ricd::scenario {
namespace {

/// SplitMix64-style fork of the scenario seed for campaign `index`: every
/// campaign gets an independent stream, so knob sweeps on one campaign
/// never reshuffle another.
uint64_t MixSeed(uint64_t seed, uint64_t index, uint64_t salt) {
  uint64_t h = seed + 0x9e3779b97f4a7c15ULL * (index + 1) + salt;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

/// Id-space stride between campaigns; far above any realistic crew size and
/// far below the 10M gap between the worker and target bases.
constexpr uint64_t kCampaignIdStride = 1000000;

bool IsLegacyCampaign(const AttackSpec& attack) {
  return attack.groups == 0 && attack.family == "derived_ric";
}

}  // namespace

Result<gen::Scenario> Materialize(const ScenarioSpec& spec) {
  RICD_TRACE_SPAN("scenario.materialize");
  gen::BackgroundConfig background_config = gen::BackgroundConfigFor(spec.scale);
  if (spec.skew > 0.0) {
    background_config.item_popularity_exponent = spec.skew;
  }
  const gen::OrganicCommunityConfig organic_config =
      gen::OrganicConfigFor(spec.scale);

  Rng rng(spec.seed);
  gen::Scenario out;
  out.background_config = background_config;
  out.organic_config = organic_config;
  out.attack_config = gen::AttackConfigFor(spec.scale);

  RICD_ASSIGN_OR_RETURN(table::ClickTable background,
                        gen::GenerateBackground(background_config, rng));
  RICD_ASSIGN_OR_RETURN(
      gen::OrganicCommunityResult organic,
      gen::GenerateOrganicCommunities(organic_config, background, rng));
  out.organic_clubs = std::move(organic.clubs);

  // Attacks see background + clubs, so hot-item selection and camouflage
  // pools match what the final graph will contain (same contract as
  // gen::MakeScenario).
  table::ClickTable with_clubs = std::move(background);
  with_clubs.AppendTable(organic.clicks);
  with_clubs.ConsolidateDuplicates();

  std::vector<table::ClickTable> attack_tables;
  for (size_t i = 0; i < spec.attacks.size(); ++i) {
    const AttackSpec& attack = spec.attacks[i];
    gen::InjectionResult injection;
    if (IsLegacyCampaign(attack)) {
      // Shared-stream calibrated campaign: for a single-campaign spec this
      // reproduces gen::MakeScenario(scale, seed) bit for bit.
      gen::AttackConfig config = gen::AttackConfigFor(spec.scale);
      config.worker_id_base += i * kCampaignIdStride;
      config.target_id_base += i * kCampaignIdStride;
      RICD_ASSIGN_OR_RETURN(injection,
                            gen::InjectAttacks(config, with_clubs, rng));
    } else if (attack.budget == 0) {
      continue;  // explicit no-op: contributes nothing, not even rng draws
    } else {
      RICD_ASSIGN_OR_RETURN(const gen::AttackStrategy* strategy,
                            gen::FindAttackFamily(attack.family));
      gen::AttackKnobs knobs;
      knobs.groups = attack.groups;
      knobs.group_size = attack.group_size;
      knobs.targets_per_group = attack.targets_per_group;
      knobs.budget = attack.budget;
      knobs.camouflage_rate = attack.camouflage_rate;
      knobs.worker_id_base += i * kCampaignIdStride;
      knobs.target_id_base += i * kCampaignIdStride;
      Rng campaign_rng(MixSeed(spec.seed, i, attack.seed_salt));
      RICD_ASSIGN_OR_RETURN(injection,
                            strategy->Inject(knobs, with_clubs, campaign_rng));
    }
    out.labels.abnormal_users.insert(injection.labels.abnormal_users.begin(),
                                     injection.labels.abnormal_users.end());
    out.labels.abnormal_items.insert(injection.labels.abnormal_items.begin(),
                                     injection.labels.abnormal_items.end());
    for (auto& group : injection.groups) out.groups.push_back(std::move(group));
    attack_tables.push_back(std::move(injection.attack_clicks));
  }

  out.table = std::move(with_clubs);
  for (const table::ClickTable& attack_clicks : attack_tables) {
    out.table.AppendTable(attack_clicks);
  }
  out.table.ConsolidateDuplicates();

  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter(obs::metric_names::kGenScenarioRows)
      ->Add(out.table.num_rows());
  registry.GetCounter(obs::metric_names::kGenScenarioInjectedGroups)
      ->Add(out.groups.size());
  return out;
}

Result<gen::Scenario> MaterializeCustom(
    const gen::BackgroundConfig& background_config,
    const gen::AttackConfig& attack_config,
    const gen::OrganicCommunityConfig& organic_config, uint64_t seed) {
  return gen::MakeScenario(background_config, attack_config, organic_config,
                           seed);
}

std::vector<uint32_t> ArrivalOrder(const ScenarioSpec& spec,
                                   const table::ClickTable& table) {
  const size_t n = table.num_rows();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  // Dedicated stream: replaying must not depend on (or perturb) how many
  // draws materialization consumed.
  Rng rng(MixSeed(spec.seed, 0x41525256 /* 'ARRV' */, 0));

  switch (spec.arrival) {
    case ArrivalPattern::kUniform:
    case ArrivalPattern::kDiurnal:
      // Diurnal shares the uniform order — its character lives entirely in
      // the ArrivalSchedule() timestamps, never in the replay permutation.
      rng.Shuffle(order);
      return order;

    case ArrivalPattern::kFlashSale: {
      // The top-1% hottest items are "on sale": all their clicks land
      // before any other traffic, shuffled within each segment.
      auto totals = table.TotalClicksByItem();
      std::sort(totals.begin(), totals.end(),
                [](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second > b.second;
                  return a.first < b.first;
                });
      const size_t hot_count = std::max<size_t>(1, totals.size() / 100);
      std::unordered_set<table::ItemId> hot_items;
      for (size_t i = 0; i < hot_count && i < totals.size(); ++i) {
        hot_items.insert(totals[i].first);
      }
      std::vector<uint32_t> hot;
      std::vector<uint32_t> cold;
      for (uint32_t i = 0; i < n; ++i) {
        (hot_items.count(table.item(i)) > 0 ? hot : cold).push_back(i);
      }
      rng.Shuffle(hot);
      rng.Shuffle(cold);
      hot.insert(hot.end(), cold.begin(), cold.end());
      return hot;
    }

    case ArrivalPattern::kBurst:
    case ArrivalPattern::kAttackBurstMidWindow: {
      // All attack traffic (minted worker accounts) lands as one
      // contiguous burst in the middle of the organic stream.
      const table::UserId minted_base = gen::AttackKnobs{}.worker_id_base;
      std::vector<uint32_t> organic;
      std::vector<uint32_t> attack;
      for (uint32_t i = 0; i < n; ++i) {
        (table.user(i) >= minted_base ? attack : organic).push_back(i);
      }
      rng.Shuffle(organic);
      rng.Shuffle(attack);
      std::vector<uint32_t> out;
      out.reserve(n);
      const size_t half = organic.size() / 2;
      out.insert(out.end(), organic.begin(), organic.begin() + half);
      out.insert(out.end(), attack.begin(), attack.end());
      out.insert(out.end(), organic.begin() + half, organic.end());
      return out;
    }
  }
  return order;
}

std::vector<ArrivalEvent> ArrivalSchedule(const ScenarioSpec& spec,
                                          const table::ClickTable& table) {
  const std::vector<uint32_t> order = ArrivalOrder(spec, table);
  const size_t n = order.size();
  std::vector<ArrivalEvent> schedule(n);
  for (size_t i = 0; i < n; ++i) schedule[i].row = order[i];

  switch (spec.arrival) {
    case ArrivalPattern::kUniform:
    case ArrivalPattern::kFlashSale:
    case ArrivalPattern::kBurst:
      // Featureless clock: one second per event. Keeps the pre-window
      // semantics of these patterns (no retention regime of their own)
      // while still driving the window's watermark forward.
      for (size_t i = 0; i < n; ++i) schedule[i].ts = i;
      return schedule;

    case ArrivalPattern::kDiurnal: {
      // One 86400-second day shaped by an hourly e-commerce load curve
      // (overnight trough, lunchtime shoulder, evening peak). Counts per
      // hour use integer largest-remainder allocation and events spread
      // evenly inside their hour — all integer arithmetic, so the clock is
      // bit-stable across platforms.
      static constexpr uint32_t kHourWeight[24] = {
          2, 1, 1, 1, 1, 2, 3, 5, 7, 8, 9, 10, 11, 10, 9, 9, 10, 11, 12, 13,
          12, 9, 6, 4};
      uint64_t total_weight = 0;
      for (const uint32_t w : kHourWeight) total_weight += w;
      uint64_t counts[24];
      uint64_t assigned = 0;
      std::vector<std::pair<uint64_t, size_t>> remainders;  // (remainder, hour)
      remainders.reserve(24);
      for (size_t h = 0; h < 24; ++h) {
        const uint64_t share = static_cast<uint64_t>(n) * kHourWeight[h];
        counts[h] = share / total_weight;
        assigned += counts[h];
        remainders.emplace_back(share % total_weight, h);
      }
      // Largest remainder gets the leftover events; ties break to the
      // earlier hour so the allocation is a pure function of n.
      std::sort(remainders.begin(), remainders.end(),
                [](const auto& a, const auto& b) {
                  if (a.first != b.first) return a.first > b.first;
                  return a.second < b.second;
                });
      for (size_t k = 0; assigned < n; ++assigned, ++k) {
        ++counts[remainders[k % remainders.size()].second];
      }
      size_t i = 0;
      for (size_t h = 0; h < 24; ++h) {
        for (uint64_t j = 0; j < counts[h] && i < n; ++j, ++i) {
          schedule[i].ts = h * 3600 + (j * 3600) / (counts[h] == 0 ? 1 : counts[h]);
        }
      }
      return schedule;
    }

    case ArrivalPattern::kAttackBurstMidWindow: {
      // Organic clicks tick 8 seconds apart; the contiguous attack block
      // (minted worker ids) freezes the clock, so the whole campaign
      // lands inside a single event-second mid-trace.
      const table::UserId minted_base = gen::AttackKnobs{}.worker_id_base;
      uint64_t organic_ticks = 0;
      for (size_t i = 0; i < n; ++i) {
        if (table.user(schedule[i].row) >= minted_base) {
          schedule[i].ts = organic_ticks * 8;
        } else {
          schedule[i].ts = organic_ticks * 8;
          ++organic_ticks;
        }
      }
      return schedule;
    }
  }
  for (size_t i = 0; i < n; ++i) schedule[i].ts = i;
  return schedule;
}

}  // namespace ricd::scenario
