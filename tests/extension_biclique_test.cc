// Tests for Algorithm 3: CorePruning, SquarePruning, and the full
// (alpha, k1, k2)-extension biclique extractor, including a planted-biclique
// property sweep.

#include "ricd/extension_biclique.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "common/random.h"
#include "engine/worker_engine.h"
#include "graph/graph_builder.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace ricd::core {
namespace {

using graph::Side;
using graph::VertexId;

/// A k x k biclique of users [100, 100+k) and items [1000, 1000+k), with
/// `noise_users` background users each clicking `noise_degree` random items
/// outside the biclique.
table::ClickTable PlantedBiclique(uint32_t k, uint32_t noise_users,
                                  uint32_t noise_degree, uint64_t seed) {
  table::ClickTable t;
  for (uint32_t u = 0; u < k; ++u) {
    for (uint32_t i = 0; i < k; ++i) {
      t.Append(100 + u, 1000 + i, 13);
    }
  }
  Rng rng(seed);
  for (uint32_t u = 0; u < noise_users; ++u) {
    for (uint32_t d = 0; d < noise_degree; ++d) {
      t.Append(10000 + u, static_cast<table::ItemId>(rng.Uniform(500)), 1);
    }
  }
  t.ConsolidateDuplicates();
  return t;
}

RicdParams Params(uint32_t k1, uint32_t k2, double alpha) {
  RicdParams p;
  p.k1 = k1;
  p.k2 = k2;
  p.alpha = alpha;
  p.t_hot = 1000000;  // keep everything ordinary for these structural tests
  return p;
}

TEST(ExtractorTest, RejectsBadParameters) {
  const auto g = graph::GraphBuilder::FromTable(PlantedBiclique(5, 0, 0, 1)).value();
  EXPECT_FALSE(ExtensionBicliqueExtractor(Params(0, 5, 1.0)).Extract(g).ok());
  EXPECT_FALSE(ExtensionBicliqueExtractor(Params(5, 0, 1.0)).Extract(g).ok());
  EXPECT_FALSE(ExtensionBicliqueExtractor(Params(5, 5, 0.0)).Extract(g).ok());
  EXPECT_FALSE(ExtensionBicliqueExtractor(Params(5, 5, 1.1)).Extract(g).ok());
}

TEST(CorePruningTest, RemovesLowDegreeCascade) {
  // Chain: u1-i1, u1-i2, u2-i2: with k1=k2=2, alpha=1, everything dies
  // (u2 has degree 1 -> removed; i2 drops to 1 -> removed; u1 drops to 1...).
  table::ClickTable t;
  t.Append(1, 1, 1);
  t.Append(1, 2, 1);
  t.Append(2, 2, 1);
  const auto g = graph::GraphBuilder::FromTable(t).value();
  ExtensionBicliqueExtractor ex(Params(2, 2, 1.0));
  graph::MutableView view(g);
  ExtractionStats stats;
  ex.CorePruning(view, &stats);
  EXPECT_EQ(view.NumActive(Side::kUser), 0u);
  EXPECT_EQ(view.NumActive(Side::kItem), 0u);
  EXPECT_EQ(stats.users_removed_core, 2u);
  EXPECT_EQ(stats.items_removed_core, 2u);
}

TEST(CorePruningTest, KeepsBicliqueMembers) {
  const auto g = graph::GraphBuilder::FromTable(PlantedBiclique(6, 50, 3, 2)).value();
  ExtensionBicliqueExtractor ex(Params(6, 6, 1.0));
  graph::MutableView view(g);
  ex.CorePruning(view, nullptr);
  // All 6 biclique users and items survive (degree exactly 6).
  uint32_t surviving_users = 0;
  for (VertexId u = 0; u < g.num_users(); ++u) {
    if (view.IsActive(Side::kUser, u) && g.ExternalUserId(u) >= 100 &&
        g.ExternalUserId(u) < 106) {
      ++surviving_users;
    }
  }
  EXPECT_EQ(surviving_users, 6u);
}

TEST(CorePruningTest, AlphaScalesDegreeThreshold) {
  // Star user with degree 7 < ceil(1.0 * 10) dies at alpha=1 but survives
  // CorePruning at alpha=0.7 (ceil(0.7*10) = 7).
  table::ClickTable t;
  for (table::ItemId i = 0; i < 7; ++i) t.Append(1, i, 1);
  // Give items enough degree from other users.
  for (table::UserId u = 2; u < 14; ++u) {
    for (table::ItemId i = 0; i < 7; ++i) t.Append(u, i, 1);
  }
  const auto g = graph::GraphBuilder::FromTable(t).value();
  VertexId star = 0;
  ASSERT_TRUE(g.LookupUser(1, &star));

  {
    graph::MutableView view(g);
    ExtensionBicliqueExtractor ex(Params(10, 10, 1.0));
    ex.CorePruning(view, nullptr);
    EXPECT_FALSE(view.IsActive(Side::kUser, star));
  }
  {
    graph::MutableView view(g);
    ExtensionBicliqueExtractor ex(Params(10, 10, 0.7));
    ex.CorePruning(view, nullptr);
    EXPECT_TRUE(view.IsActive(Side::kUser, star));
  }
}

TEST(SquarePruningTest, RemovesVerticesWithoutEnoughAlphaKNeighbors) {
  // Biclique of 4x6 plus an extra user sharing only 2 items: with k1=4,
  // k2=6, alpha=1 the extra user must go (needs 4 users sharing 6 items).
  table::ClickTable t;
  for (table::UserId u = 0; u < 4; ++u) {
    for (table::ItemId i = 0; i < 6; ++i) t.Append(100 + u, i, 5);
  }
  t.Append(999, 0, 5);
  t.Append(999, 1, 5);
  // Pad user 999's degree to 6 and give the pad region enough density that
  // CorePruning keeps everyone: pads 500..505 form a 6x6 biclique over
  // items 10..15, four of which 999 also clicks.
  for (table::ItemId i = 10; i < 14; ++i) t.Append(999, i, 5);
  for (table::UserId u = 0; u < 6; ++u) {
    for (table::ItemId i = 10; i < 16; ++i) t.Append(500 + u, i, 1);
  }
  const auto g = graph::GraphBuilder::FromTable(t).value();
  ExtensionBicliqueExtractor ex(Params(4, 6, 1.0));
  graph::MutableView view(g);
  ex.CorePruning(view, nullptr);
  VertexId outsider = 0;
  ASSERT_TRUE(g.LookupUser(999, &outsider));
  ASSERT_TRUE(view.IsActive(Side::kUser, outsider));

  ExtractionStats stats;
  ex.SquarePruning(view, /*ordered=*/true, &stats);
  EXPECT_FALSE(view.IsActive(Side::kUser, outsider));
  EXPECT_GT(stats.users_removed_square, 0u);

  // Biclique members survive.
  for (table::UserId ext = 100; ext < 104; ++ext) {
    VertexId u = 0;
    ASSERT_TRUE(g.LookupUser(ext, &u));
    EXPECT_TRUE(view.IsActive(Side::kUser, u));
  }
}

/// An 8 x 8 planted biclique whose item 1000 is also clicked once by each
/// of `one_click_users` background users. CorePruning removes every one of
/// those users before SquarePruning runs.
table::ClickTable BicliqueWithOneClickCrowd(uint32_t one_click_users) {
  table::ClickTable t = PlantedBiclique(8, 0, 0, 1);
  for (uint32_t u = 0; u < one_click_users; ++u) t.Append(50000 + u, 1000, 1);
  return t;
}

TEST(SquarePruningTest, TwoHopWorkIgnoresVerticesCorePruningRemoved) {
  engine::WorkerEngine engine(1);
  obs::Counter* entries = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kRicdExtractionTwoHopEntries);
  obs::Counter* words = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kRicdExtractionDenseWords);
  struct Outcome {
    std::vector<graph::Group> groups;
    uint64_t two_hop_entries = 0;
    uint64_t dense_words = 0;
  };
  const auto run = [&](uint32_t crowd) {
    const auto g =
        graph::GraphBuilder::FromTable(BicliqueWithOneClickCrowd(crowd)).value();
    ExtensionBicliqueExtractor ex(Params(8, 8, 1.0), &engine);
    Outcome out;
    const uint64_t entries_before = entries->Value();
    const uint64_t words_before = words->Value();
    auto groups = ex.Extract(g);
    out.two_hop_entries = entries->Value() - entries_before;
    out.dense_words = words->Value() - words_before;
    EXPECT_TRUE(groups.ok());
    if (groups.ok()) out.groups = std::move(groups).value();
    return out;
  };
  const Outcome small = run(100);
  const Outcome large = run(10000);

  // One clean sweep over the 8 x 8 survivors, whatever the crowd size:
  // each side pass has n = 8, so every counterpart row holds at least
  // ⌈8/64⌉ = 1 entry and is dense. Each side's 8 candidates read no entry
  // one at a time and add 8 one-word rows.
  EXPECT_EQ(small.two_hop_entries, 0u);
  EXPECT_EQ(small.dense_words, uint64_t{2 * 8 * 8});
  EXPECT_EQ(large.two_hop_entries, small.two_hop_entries);
  EXPECT_EQ(large.dense_words, small.dense_words);
  ASSERT_EQ(small.groups.size(), 1u);
  ASSERT_EQ(large.groups.size(), small.groups.size());
  EXPECT_EQ(large.groups[0].users, small.groups[0].users);
  EXPECT_EQ(large.groups[0].items, small.groups[0].items);
}

TEST(ExtractorTest, FindsPlantedBicliqueExactly) {
  const auto g =
      graph::GraphBuilder::FromTable(PlantedBiclique(8, 200, 3, 3)).value();
  ExtensionBicliqueExtractor ex(Params(8, 8, 1.0));
  auto groups = ex.Extract(g);
  ASSERT_TRUE(groups.ok());
  ASSERT_EQ(groups->size(), 1u);
  EXPECT_EQ((*groups)[0].users.size(), 8u);
  EXPECT_EQ((*groups)[0].items.size(), 8u);
  for (const VertexId u : (*groups)[0].users) {
    EXPECT_GE(g.ExternalUserId(u), 100);
    EXPECT_LT(g.ExternalUserId(u), 108);
  }
}

TEST(ExtractorTest, GroupSizeCapDropsOversizedComponents) {
  const auto g =
      graph::GraphBuilder::FromTable(PlantedBiclique(8, 0, 0, 4)).value();
  RicdParams p = Params(8, 8, 1.0);
  p.max_group_users = 4;  // property (4b): treat big crowds as group buying
  ExtensionBicliqueExtractor ex(p);
  auto groups = ex.Extract(g);
  ASSERT_TRUE(groups.ok());
  EXPECT_TRUE(groups->empty());
}

TEST(ExtractorTest, CoreOnlyKeepsMoreThanFull) {
  const auto g =
      graph::GraphBuilder::FromTable(PlantedBiclique(8, 400, 8, 5)).value();
  ExtensionBicliqueExtractor ex(Params(6, 6, 1.0));
  ExtractionStats full_stats;
  ExtractionStats core_stats;
  auto full = ex.Extract(g, &full_stats);
  auto core = ex.ExtractCoreOnly(g, &core_stats);
  ASSERT_TRUE(full.ok() && core.ok());
  EXPECT_EQ(core_stats.users_removed_square, 0u);
  size_t full_nodes = 0;
  size_t core_nodes = 0;
  for (const auto& grp : *full) full_nodes += grp.size();
  for (const auto& grp : *core) core_nodes += grp.size();
  EXPECT_LE(full_nodes, core_nodes);
}

TEST(ExtractorTest, AlphaExtensionCatchesImperfectGroups) {
  // 10 users x 10 items minus the diagonal: every user misses exactly one
  // item, so each pair of users shares exactly 8 items. A perfect-biclique
  // demand (alpha = 1, common >= 9) prunes everyone; alpha = 0.85
  // (common >= 8) recovers the whole group.
  table::ClickTable t;
  for (table::UserId u = 0; u < 10; ++u) {
    for (table::ItemId i = 0; i < 10; ++i) {
      if (static_cast<table::ItemId>(u) == i) continue;
      t.Append(100 + u, 1000 + i, 13);
    }
  }
  const auto g = graph::GraphBuilder::FromTable(t).value();

  auto strict = ExtensionBicliqueExtractor(Params(9, 9, 1.0)).Extract(g);
  ASSERT_TRUE(strict.ok());
  EXPECT_TRUE(strict->empty());

  auto relaxed = ExtensionBicliqueExtractor(Params(9, 9, 0.85)).Extract(g);
  ASSERT_TRUE(relaxed.ok());
  ASSERT_EQ(relaxed->size(), 1u);
  EXPECT_EQ((*relaxed)[0].users.size(), 10u);
  EXPECT_EQ((*relaxed)[0].items.size(), 10u);
}

TEST(ExtractorTest, EmptyGraph) {
  const auto g = graph::GraphBuilder::FromTable(table::ClickTable()).value();
  auto groups = ExtensionBicliqueExtractor(Params(5, 5, 1.0)).Extract(g);
  ASSERT_TRUE(groups.ok());
  EXPECT_TRUE(groups->empty());
}

/// Property sweep: for every (k, alpha), a planted k x k biclique embedded
/// in noise is recovered whenever k >= (k1, k2), and pruning never removes
/// its members.
class PlantedBicliquePropertyTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, double, uint64_t>> {};

TEST_P(PlantedBicliquePropertyTest, RecoversPlantedStructure) {
  const auto [k, alpha, seed] = GetParam();
  const auto g =
      graph::GraphBuilder::FromTable(PlantedBiclique(k, 150, 4, seed)).value();
  ExtensionBicliqueExtractor ex(Params(k, k, alpha));
  auto groups = ex.Extract(g);
  ASSERT_TRUE(groups.ok());
  ASSERT_FALSE(groups->empty());

  std::unordered_set<table::UserId> found;
  for (const auto& grp : *groups) {
    for (const VertexId u : grp.users) found.insert(g.ExternalUserId(u));
  }
  for (uint32_t u = 0; u < k; ++u) {
    EXPECT_TRUE(found.count(100 + u) > 0) << "planted user " << 100 + u;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PlantedBicliquePropertyTest,
    ::testing::Combine(::testing::Values(5u, 8u, 12u),
                       ::testing::Values(0.7, 0.9, 1.0),
                       ::testing::Values(21u, 22u)));

}  // namespace
}  // namespace ricd::core
