// Tests for the batch-at-a-time detector (the paper's Section VIII
// future-work direction): streaming ingestion into a consolidated standing
// table, and equality with an offline run over that table after every batch.

#include "ricd/incremental.h"

#include <gtest/gtest.h>

#include "gen/scenario.h"
#include "graph/graph_builder.h"

namespace ricd::core {
namespace {

FrameworkOptions TinyOptions() {
  FrameworkOptions options;
  options.params.k1 = 8;
  options.params.k2 = 8;
  options.params.t_hot = 800;
  options.params.t_click = 12;
  return options;
}

/// Splits a table's rows into `parts` round-robin batches.
std::vector<table::ClickTable> SplitRows(const table::ClickTable& t, size_t parts) {
  std::vector<table::ClickTable> out(parts);
  for (size_t i = 0; i < t.num_rows(); ++i) {
    out[i % parts].Append(t.row(i));
  }
  return out;
}

TEST(IncrementalTest, IngestBeforeBootstrapFails) {
  IncrementalRicd inc(TinyOptions());
  table::ClickTable batch;
  batch.Append(1, 1, 1);
  auto r = inc.Ingest(batch);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(IncrementalTest, StreamStateMatchesConsolidatedTable) {
  IncrementalRicd inc(TinyOptions());
  ASSERT_TRUE(inc.Bootstrap(table::ClickTable()).ok());

  table::ClickTable batch1;
  batch1.Append(1, 10, 3);
  batch1.Append(2, 10, 4);
  table::ClickTable batch2;
  batch2.Append(1, 10, 2);  // duplicate pair merges
  batch2.Append(1, 11, 1);
  ASSERT_TRUE(inc.Ingest(batch1).ok());
  ASSERT_TRUE(inc.Ingest(batch2).ok());

  EXPECT_EQ(inc.num_edges(), 3u);

  const table::ClickTable& materialized = inc.table();
  ASSERT_EQ(materialized.num_rows(), 3u);
  EXPECT_TRUE(materialized.IsConsolidated());
  EXPECT_EQ(materialized.TotalClicks(), 10u);
  // (1, 10) merged to 5 clicks.
  EXPECT_EQ(materialized.user(0), 1);
  EXPECT_EQ(materialized.item(0), 10);
  EXPECT_EQ(materialized.clicks(0), 5u);
}

TEST(IncrementalTest, BootstrapFlagsExistingAttacks) {
  auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, 42).value();
  IncrementalRicd inc(TinyOptions());
  ASSERT_TRUE(inc.Bootstrap(scenario.table).ok());

  size_t hits = 0;
  for (const auto& [user, risk] : inc.flagged_users()) {
    if (scenario.labels.IsAbnormalUser(user)) ++hits;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(inc.flagged_items().size(), 0u);
}

TEST(IncrementalTest, StreamedAttackIsDetectedOnArrival) {
  // Bootstrap on the organic background only, then stream one attack
  // group's clicks in batches; the group must be flagged once enough of it
  // has arrived.
  auto background_config = gen::BackgroundConfigFor(gen::ScenarioScale::kTiny);
  Rng rng(7);
  auto background = gen::GenerateBackground(background_config, rng).value();

  gen::AttackConfig attack = gen::AttackConfigFor(gen::ScenarioScale::kTiny);
  attack.num_groups = 1;
  attack.workers_per_group = 14;
  attack.targets_per_group = 10;
  attack.cautious_fraction = 0.0;
  attack.structure_evading_fraction = 0.0;
  attack.budget_evading_fraction = 0.0;
  attack.group_size_jitter = 0.0;
  attack.disguised_worker_fraction = 0.0;
  auto injection = gen::InjectAttacks(attack, background, rng).value();

  IncrementalRicd inc(TinyOptions());
  ASSERT_TRUE(inc.Bootstrap(background).ok());

  size_t newly_flagged_attackers = 0;
  for (const auto& batch : SplitRows(injection.attack_clicks, 4)) {
    auto update = inc.Ingest(batch);
    ASSERT_TRUE(update.ok()) << update.status();
    for (const auto u : update->newly_flagged_users) {
      if (injection.labels.IsAbnormalUser(u)) ++newly_flagged_attackers;
    }
    // Every batch re-detects over the whole standing table.
    EXPECT_EQ(update->region_edges, inc.num_edges());
  }
  EXPECT_GE(newly_flagged_attackers, attack.workers_per_group * 7 / 10);
}

TEST(IncrementalTest, EveryIngestEqualsOfflineRunOverStandingTable) {
  auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, 2024).value();
  const auto batches = SplitRows(scenario.table, 5);

  IncrementalRicd inc(TinyOptions());
  ASSERT_TRUE(inc.Bootstrap(batches[0]).ok());
  table::ClickTable streamed = batches[0];
  for (size_t i = 1; i < batches.size(); ++i) {
    ASSERT_TRUE(inc.Ingest(batches[i]).ok());
    streamed.AppendTable(batches[i]);
    table::ClickTable consolidated = streamed;
    consolidated.ConsolidateDuplicates();
    ASSERT_EQ(inc.num_edges(), consolidated.num_rows());

    auto full = RicdFramework(TinyOptions()).Run(consolidated);
    ASSERT_TRUE(full.ok()) << full.status();
    ASSERT_EQ(inc.flagged_users().size(), full->ranked.users.size());
    for (const auto& user : full->ranked.users) {
      ASSERT_TRUE(inc.IsFlaggedUser(user.external_id));
      EXPECT_EQ(inc.flagged_users().at(user.external_id), user.risk);
    }
    ASSERT_EQ(inc.flagged_items().size(), full->ranked.items.size());
    for (const auto& item : full->ranked.items) {
      ASSERT_TRUE(inc.IsFlaggedItem(item.external_id));
      EXPECT_EQ(inc.flagged_items().at(item.external_id), item.risk);
    }
  }
  EXPECT_GT(inc.flagged_users().size(), 0u);
}

TEST(IncrementalTest, EmptyBatchIsNoop) {
  IncrementalRicd inc(TinyOptions());
  ASSERT_TRUE(inc.Bootstrap(table::ClickTable()).ok());
  auto update = inc.Ingest(table::ClickTable());
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update->region_edges, 0u);
  EXPECT_TRUE(update->newly_flagged_users.empty());
}

}  // namespace
}  // namespace ricd::core
