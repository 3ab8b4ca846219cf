// Tests for the synthetic workload generator, attack injector, organic
// communities and scenario assembly.

#include "gen/scenario.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "table/table_stats.h"

namespace ricd::gen {
namespace {

TEST(BackgroundGeneratorTest, RejectsBadConfigs) {
  Rng rng(1);
  BackgroundConfig c;
  c.num_users = 0;
  EXPECT_FALSE(GenerateBackground(c, rng).ok());
  c = BackgroundConfig{};
  c.clicks_per_edge_p = 0.0;
  EXPECT_FALSE(GenerateBackground(c, rng).ok());
  c = BackgroundConfig{};
  c.clicks_per_edge_p = 1.5;
  EXPECT_FALSE(GenerateBackground(c, rng).ok());
  c = BackgroundConfig{};
  c.user_activity_shape = -1.0;
  EXPECT_FALSE(GenerateBackground(c, rng).ok());
}

TEST(BackgroundGeneratorTest, OutputIsConsolidated) {
  Rng rng(2);
  BackgroundConfig c;
  c.num_users = 500;
  c.num_items = 100;
  auto t = GenerateBackground(c, rng);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->IsConsolidated());
  EXPECT_GT(t->num_rows(), 0u);
  for (size_t i = 0; i < t->num_rows(); ++i) {
    EXPECT_GT(t->clicks(i), 0u);
  }
}

TEST(BackgroundGeneratorTest, DeterministicForSameSeed) {
  BackgroundConfig c;
  c.num_users = 300;
  c.num_items = 80;
  Rng rng1(7);
  Rng rng2(7);
  auto t1 = GenerateBackground(c, rng1);
  auto t2 = GenerateBackground(c, rng2);
  ASSERT_TRUE(t1.ok() && t2.ok());
  ASSERT_EQ(t1->num_rows(), t2->num_rows());
  for (size_t i = 0; i < t1->num_rows(); ++i) {
    EXPECT_EQ(t1->row(i), t2->row(i));
  }
}

TEST(BackgroundGeneratorTest, IdBasesRespected) {
  BackgroundConfig c;
  c.num_users = 100;
  c.num_items = 50;
  c.user_id_base = 1000;
  c.item_id_base = 5000;
  Rng rng(3);
  auto t = GenerateBackground(c, rng);
  ASSERT_TRUE(t.ok());
  for (size_t i = 0; i < t->num_rows(); ++i) {
    EXPECT_GE(t->user(i), 1000);
    EXPECT_LT(t->user(i), 1100);
    EXPECT_GE(t->item(i), 5000);
    EXPECT_LT(t->item(i), 5050);
  }
}

TEST(BackgroundGeneratorTest, ShapeIsHeavyTailed) {
  // The calibrated defaults must reproduce the paper's distribution shape:
  // hot threshold (80% mass rule) several times above the mean item clicks,
  // and item-side stdev far above the mean (Table II's Stdev 992 vs 55).
  BackgroundConfig c;
  c.num_users = 20000;
  c.num_items = 4000;
  Rng rng(7);
  auto t = GenerateBackground(c, rng);
  ASSERT_TRUE(t.ok());
  const auto stats = table::ComputeTableStats(*t);
  const uint64_t t_hot = table::ComputeHotThreshold(*t, 0.8);
  EXPECT_GT(static_cast<double>(t_hot), 5.0 * stats.item_side.avg_clicks);
  EXPECT_GT(stats.item_side.stdev_clicks, 8.0 * stats.item_side.avg_clicks);
  // Users average a handful of distinct items, like the paper's 4.3.
  EXPECT_GT(stats.user_side.avg_degree, 2.0);
  EXPECT_LT(stats.user_side.avg_degree, 8.0);
}

AttackConfig SmallAttack() {
  AttackConfig c;
  c.num_groups = 4;
  c.workers_per_group = 10;
  c.targets_per_group = 5;
  c.hot_items_per_group = 2;
  c.group_size_jitter = 0.0;
  c.cautious_fraction = 0.0;
  c.structure_evading_fraction = 0.0;
  c.budget_evading_fraction = 0.0;
  c.full_budget_jitter = 0.0;
  return c;
}

table::ClickTable SmallBackground(uint64_t seed = 11) {
  BackgroundConfig c;
  c.num_users = 2000;
  c.num_items = 400;
  Rng rng(seed);
  return GenerateBackground(c, rng).value();
}

TEST(AttackInjectorTest, RejectsBadConfigs) {
  Rng rng(1);
  const auto background = SmallBackground();
  AttackConfig c = SmallAttack();
  c.num_groups = 0;
  EXPECT_FALSE(InjectAttacks(c, background, rng).ok());
  c = SmallAttack();
  c.participation = 0.0;
  EXPECT_FALSE(InjectAttacks(c, background, rng).ok());
  c = SmallAttack();
  c.min_target_clicks = 30;
  c.max_target_clicks = 20;
  EXPECT_FALSE(InjectAttacks(c, background, rng).ok());
  c = SmallAttack();
  EXPECT_FALSE(InjectAttacks(c, table::ClickTable(), rng).ok());
}

TEST(AttackInjectorTest, RejectsIdCollisions) {
  Rng rng(1);
  const auto background = SmallBackground();
  AttackConfig c = SmallAttack();
  c.worker_id_base = 0;  // collides with background users
  EXPECT_FALSE(InjectAttacks(c, background, rng).ok());
  c = SmallAttack();
  c.target_id_base = 0;  // collides with background items
  EXPECT_FALSE(InjectAttacks(c, background, rng).ok());
}

TEST(AttackInjectorTest, LabelsCoverExactlyTheMintedNodes) {
  Rng rng(5);
  const auto background = SmallBackground();
  const AttackConfig c = SmallAttack();
  auto r = InjectAttacks(c, background, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->groups.size(), 4u);
  EXPECT_EQ(r->labels.abnormal_users.size(), 4u * 10u);
  EXPECT_EQ(r->labels.abnormal_items.size(), 4u * 5u);
  for (const auto& grp : r->groups) {
    for (const auto w : grp.workers) EXPECT_TRUE(r->labels.IsAbnormalUser(w));
    for (const auto t : grp.targets) EXPECT_TRUE(r->labels.IsAbnormalItem(t));
    // Hot items are victims, never labeled.
    for (const auto h : grp.hot_items) EXPECT_FALSE(r->labels.IsAbnormalItem(h));
  }
}

TEST(AttackInjectorTest, FullWorkersHammerEveryTarget) {
  Rng rng(5);
  const auto background = SmallBackground();
  AttackConfig c = SmallAttack();
  c.camouflage_items = 0;
  c.organic_clicks_per_target = 0;
  c.disguised_worker_fraction = 0.0;
  auto r = InjectAttacks(c, background, rng);
  ASSERT_TRUE(r.ok());

  // Index attack clicks.
  std::unordered_set<table::UserId> workers;
  for (const auto& grp : r->groups) {
    workers.insert(grp.workers.begin(), grp.workers.end());
  }
  // Every (worker, target) pair of a full-participation group exists with
  // clicks in [min, max]; hot edges carry 1-2 clicks.
  const auto& t = r->attack_clicks;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    ASSERT_TRUE(workers.count(t.user(i)) > 0);
    if (r->labels.IsAbnormalItem(t.item(i))) {
      EXPECT_GE(t.clicks(i), c.min_target_clicks);
      EXPECT_LE(t.clicks(i), c.max_target_clicks);
    } else {
      EXPECT_LE(t.clicks(i), 2u) << "hot-item touch should be 1-2 clicks";
    }
  }
  // Pair count: groups * workers * (targets + hots).
  EXPECT_EQ(t.num_rows(), 4u * 10u * (5u + 2u));
}

TEST(AttackInjectorTest, CautiousCrewsStayBelowTClick) {
  Rng rng(5);
  const auto background = SmallBackground();
  AttackConfig c = SmallAttack();
  c.cautious_fraction = 1.0;  // all groups cautious
  c.camouflage_items = 0;
  c.organic_clicks_per_target = 0;
  c.disguised_worker_fraction = 0.0;
  auto r = InjectAttacks(c, background, rng);
  ASSERT_TRUE(r.ok());
  const auto& t = r->attack_clicks;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    if (r->labels.IsAbnormalItem(t.item(i))) {
      EXPECT_GE(t.clicks(i), c.evading_min_target_clicks);
      EXPECT_LE(t.clicks(i), c.evading_max_target_clicks);
    }
  }
}

TEST(AttackInjectorTest, DisguisedWorkersClickHotItemsHeavily) {
  Rng rng(5);
  const auto background = SmallBackground();
  AttackConfig c = SmallAttack();
  c.disguised_worker_fraction = 1.0;
  c.camouflage_items = 0;
  c.organic_clicks_per_target = 0;
  auto r = InjectAttacks(c, background, rng);
  ASSERT_TRUE(r.ok());
  const auto& t = r->attack_clicks;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    if (!r->labels.IsAbnormalItem(t.item(i))) {
      EXPECT_GE(t.clicks(i), c.min_disguise_hot_clicks);
      EXPECT_LE(t.clicks(i), c.max_disguise_hot_clicks);
    }
  }
}

TEST(AttackInjectorTest, GroupStructureStableAcrossBehaviourKnobs) {
  // The injector plans structure (sizes, hot items, budgets) from a
  // dedicated random stream, so changing behaviour-only knobs (camouflage,
  // disguise) must not reshuffle group composition — parameter sweeps stay
  // comparable.
  const auto background = SmallBackground();
  AttackConfig a = SmallAttack();
  a.group_size_jitter = 0.5;
  AttackConfig b = a;
  b.camouflage_items = 12;
  b.disguised_worker_fraction = 1.0;

  Rng rng_a(123);
  Rng rng_b(123);
  auto ra = InjectAttacks(a, background, rng_a);
  auto rb = InjectAttacks(b, background, rng_b);
  ASSERT_TRUE(ra.ok() && rb.ok());
  ASSERT_EQ(ra->groups.size(), rb->groups.size());
  for (size_t i = 0; i < ra->groups.size(); ++i) {
    EXPECT_EQ(ra->groups[i].workers.size(), rb->groups[i].workers.size());
    EXPECT_EQ(ra->groups[i].targets.size(), rb->groups[i].targets.size());
    EXPECT_EQ(ra->groups[i].hot_items, rb->groups[i].hot_items);
  }
}

TEST(AttackInjectorTest, CrewStylesAssignedByFractions) {
  const auto background = SmallBackground();
  AttackConfig c = SmallAttack();
  c.num_groups = 20;
  c.cautious_fraction = 0.25;
  c.structure_evading_fraction = 0.25;
  c.budget_evading_fraction = 0.15;
  Rng rng(5);
  auto r = InjectAttacks(c, background, rng);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->group_styles.size(), 20u);
  size_t cautious = 0;
  size_t structure = 0;
  size_t budget = 0;
  size_t blatant = 0;
  for (const auto style : r->group_styles) {
    switch (style) {
      case CrewStyle::kCautious: ++cautious; break;
      case CrewStyle::kStructureEvading: ++structure; break;
      case CrewStyle::kBudgetEvading: ++budget; break;
      case CrewStyle::kBlatant: ++blatant; break;
    }
  }
  EXPECT_EQ(cautious, 5u);
  EXPECT_EQ(structure, 5u);
  EXPECT_EQ(budget, 3u);
  EXPECT_EQ(blatant, 7u);
}

TEST(AttackInjectorTest, RejectsOversubscribedStyleFractions) {
  const auto background = SmallBackground();
  AttackConfig c = SmallAttack();
  c.cautious_fraction = 0.6;
  c.structure_evading_fraction = 0.6;
  Rng rng(5);
  EXPECT_FALSE(InjectAttacks(c, background, rng).ok());
}

TEST(CrewStyleTest, NamesAreStable) {
  EXPECT_STREQ(CrewStyleName(CrewStyle::kBlatant), "blatant");
  EXPECT_STREQ(CrewStyleName(CrewStyle::kStructureEvading), "structure-evading");
  EXPECT_STREQ(CrewStyleName(CrewStyle::kBudgetEvading), "budget-evading");
  EXPECT_STREQ(CrewStyleName(CrewStyle::kCautious), "cautious");
}

TEST(OrganicCommunitiesTest, ClubsDrawFromBackgroundUsers) {
  Rng rng(9);
  const auto background = SmallBackground();
  OrganicCommunityConfig c;
  c.num_clubs = 3;
  c.users_per_club = 10;
  c.num_tight_clubs = 0;
  auto r = GenerateOrganicCommunities(c, background, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->clubs.size(), 3u);

  std::unordered_set<table::UserId> background_users;
  for (size_t i = 0; i < background.num_rows(); ++i) {
    background_users.insert(background.user(i));
  }
  for (const auto& club : r->clubs) {
    EXPECT_EQ(club.members.size(), 10u);
    for (const auto m : club.members) {
      EXPECT_TRUE(background_users.count(m) > 0);
    }
    for (const auto item : club.items) {
      EXPECT_GE(item, c.club_item_id_base);
    }
  }
}

TEST(OrganicCommunitiesTest, MembersClickSubsetHeavily) {
  Rng rng(9);
  const auto background = SmallBackground();
  OrganicCommunityConfig c;
  c.num_clubs = 2;
  c.users_per_club = 8;
  c.num_tight_clubs = 0;
  c.items_per_club = 6;
  c.min_items_per_user = 2;
  c.max_items_per_user = 3;
  auto r = GenerateOrganicCommunities(c, background, rng);
  ASSERT_TRUE(r.ok());
  for (size_t i = 0; i < r->clicks.num_rows(); ++i) {
    EXPECT_GE(r->clicks.clicks(i), c.min_clicks);
    EXPECT_LE(r->clicks.clicks(i), c.max_clicks);
  }
  // Each member clicked 2-3 items; rows per club within [16, 24].
  EXPECT_GE(r->clicks.num_rows(), 2u * 8u * 2u);
  EXPECT_LE(r->clicks.num_rows(), 2u * 8u * 3u);
}

TEST(OrganicCommunitiesTest, RejectsBadConfigs) {
  Rng rng(1);
  const auto background = SmallBackground();
  OrganicCommunityConfig c;
  c.min_items_per_user = 5;
  c.max_items_per_user = 3;
  EXPECT_FALSE(GenerateOrganicCommunities(c, background, rng).ok());
  c = OrganicCommunityConfig{};
  c.max_items_per_user = 100;  // > items_per_club
  EXPECT_FALSE(GenerateOrganicCommunities(c, background, rng).ok());
  c = OrganicCommunityConfig{};
  EXPECT_FALSE(GenerateOrganicCommunities(c, table::ClickTable(), rng).ok());
}

TEST(ScenarioTest, PresetsGrowWithScale) {
  const auto tiny = BackgroundConfigFor(ScenarioScale::kTiny);
  const auto small = BackgroundConfigFor(ScenarioScale::kSmall);
  const auto medium = BackgroundConfigFor(ScenarioScale::kMedium);
  const auto large = BackgroundConfigFor(ScenarioScale::kLarge);
  const auto xlarge = BackgroundConfigFor(ScenarioScale::kXLarge);
  EXPECT_LT(tiny.num_users, small.num_users);
  EXPECT_LT(small.num_users, medium.num_users);
  EXPECT_LT(medium.num_users, large.num_users);
  // xlarge is medium x10, the Fig. 8b scale-up workload.
  EXPECT_EQ(xlarge.num_users, 10 * medium.num_users);
  EXPECT_EQ(xlarge.num_items, 10 * medium.num_items);
  EXPECT_EQ(AttackConfigFor(ScenarioScale::kXLarge).num_groups,
            10 * AttackConfigFor(ScenarioScale::kMedium).num_groups);
  EXPECT_EQ(OrganicConfigFor(ScenarioScale::kXLarge).num_clubs,
            10 * OrganicConfigFor(ScenarioScale::kMedium).num_clubs);
}

TEST(ScenarioTest, AssembledTableContainsAllParts) {
  auto scenario = MakeScenario(ScenarioScale::kTiny, 42);
  ASSERT_TRUE(scenario.ok());
  EXPECT_TRUE(scenario->table.IsConsolidated());
  EXPECT_FALSE(scenario->groups.empty());
  EXPECT_FALSE(scenario->organic_clubs.empty());
  EXPECT_GT(scenario->labels.size(), 0u);

  // Every labeled node appears in the table.
  std::unordered_set<table::UserId> users;
  std::unordered_set<table::ItemId> items;
  for (size_t i = 0; i < scenario->table.num_rows(); ++i) {
    users.insert(scenario->table.user(i));
    items.insert(scenario->table.item(i));
  }
  for (const auto u : scenario->labels.abnormal_users) {
    EXPECT_TRUE(users.count(u) > 0);
  }
  for (const auto v : scenario->labels.abnormal_items) {
    EXPECT_TRUE(items.count(v) > 0);
  }
}

TEST(ScenarioTest, DeterministicForSeed) {
  auto a = MakeScenario(ScenarioScale::kTiny, 123);
  auto b = MakeScenario(ScenarioScale::kTiny, 123);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->table.num_rows(), b->table.num_rows());
  for (size_t i = 0; i < a->table.num_rows(); ++i) {
    EXPECT_EQ(a->table.row(i), b->table.row(i));
  }
  EXPECT_EQ(a->labels.abnormal_users, b->labels.abnormal_users);
}

TEST(ScenarioTest, DifferentSeedsDiffer) {
  auto a = MakeScenario(ScenarioScale::kTiny, 1);
  auto b = MakeScenario(ScenarioScale::kTiny, 2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->table.num_rows(), b->table.num_rows());
}

TEST(ScenarioTest, ScaleNames) {
  EXPECT_STREQ(ScenarioScaleName(ScenarioScale::kTiny), "tiny");
  EXPECT_STREQ(ScenarioScaleName(ScenarioScale::kLarge), "large");
  EXPECT_STREQ(ScenarioScaleName(ScenarioScale::kXLarge), "xlarge");
  for (const ScenarioScale scale :
       {ScenarioScale::kTiny, ScenarioScale::kSmall, ScenarioScale::kMedium,
        ScenarioScale::kLarge, ScenarioScale::kXLarge}) {
    ScenarioScale parsed = ScenarioScale::kTiny;
    EXPECT_TRUE(ParseScenarioScale(ScenarioScaleName(scale), &parsed))
        << ScenarioScaleName(scale);
    EXPECT_EQ(parsed, scale);
  }
  ScenarioScale untouched = ScenarioScale::kSmall;
  EXPECT_FALSE(ParseScenarioScale("huge", &untouched));
  EXPECT_EQ(untouched, ScenarioScale::kSmall);
}

}  // namespace
}  // namespace ricd::gen
