// Unit + property tests for the bipartite graph and its builder.

#include "graph/bipartite_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/random.h"
#include "graph/graph_builder.h"
#include "graph/id_lookup.h"
#include "table/click_table.h"

namespace ricd::graph {
namespace {

// u100 -> {i1: 2, i2: 5}, u200 -> {i2: 1}
table::ClickTable Sample() {
  table::ClickTable t;
  t.Append(100, 1, 2);
  t.Append(100, 2, 5);
  t.Append(200, 2, 1);
  return t;
}

TEST(GraphBuilderTest, BasicShape) {
  auto g = GraphBuilder::FromTable(Sample());
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_users(), 2u);
  EXPECT_EQ(g->num_items(), 2u);
  EXPECT_EQ(g->num_edges(), 3u);
  EXPECT_EQ(g->total_clicks(), 8u);
}

TEST(GraphBuilderTest, ExternalIdMappingRoundTrips) {
  auto g = GraphBuilder::FromTable(Sample());
  ASSERT_TRUE(g.ok());
  VertexId u = 99;
  ASSERT_TRUE(g->LookupUser(100, &u));
  EXPECT_EQ(g->ExternalUserId(u), 100);
  VertexId v = 99;
  ASSERT_TRUE(g->LookupItem(2, &v));
  EXPECT_EQ(g->ExternalItemId(v), 2);
  EXPECT_FALSE(g->LookupUser(12345, &u));
  EXPECT_FALSE(g->LookupItem(-1, &v));
}

TEST(GraphBuilderTest, AdjacencyAndWeights) {
  auto g = GraphBuilder::FromTable(Sample());
  ASSERT_TRUE(g.ok());
  VertexId u100 = 0;
  VertexId i2 = 0;
  ASSERT_TRUE(g->LookupUser(100, &u100));
  ASSERT_TRUE(g->LookupItem(2, &i2));

  EXPECT_EQ(g->Degree(Side::kUser, u100), 2u);
  EXPECT_EQ(g->UserTotalClicks(u100), 7u);
  EXPECT_EQ(g->ItemTotalClicks(i2), 6u);
  EXPECT_EQ(g->EdgeWeight(u100, i2), 5u);
  EXPECT_TRUE(g->HasEdge(u100, i2));

  VertexId u200 = 0;
  VertexId i1 = 0;
  ASSERT_TRUE(g->LookupUser(200, &u200));
  ASSERT_TRUE(g->LookupItem(1, &i1));
  EXPECT_EQ(g->EdgeWeight(u200, i1), 0u);
  EXPECT_FALSE(g->HasEdge(u200, i1));
}

TEST(GraphBuilderTest, DuplicateRowsMerge) {
  table::ClickTable t;
  t.Append(1, 1, 2);
  t.Append(1, 1, 3);
  auto g = GraphBuilder::FromTable(t);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1u);
  VertexId u = 0;
  VertexId v = 0;
  ASSERT_TRUE(g->LookupUser(1, &u));
  ASSERT_TRUE(g->LookupItem(1, &v));
  EXPECT_EQ(g->EdgeWeight(u, v), 5u);
}

TEST(GraphBuilderTest, RejectsZeroClickRows) {
  table::ClickTable t;
  t.Append(1, 1, 0);
  auto g = GraphBuilder::FromTable(t);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, EmptyTableYieldsEmptyGraph) {
  auto g = GraphBuilder::FromTable(table::ClickTable());
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_users(), 0u);
  EXPECT_EQ(g->num_items(), 0u);
  EXPECT_EQ(g->num_edges(), 0u);
}

TEST(GraphBuilderTest, NeighborListsAreSorted) {
  Rng rng(99);
  table::ClickTable t;
  for (int i = 0; i < 2000; ++i) {
    t.Append(static_cast<table::UserId>(rng.Uniform(50)),
             static_cast<table::ItemId>(rng.Uniform(80)),
             static_cast<table::ClickCount>(1 + rng.Uniform(5)));
  }
  auto g = GraphBuilder::FromTable(t);
  ASSERT_TRUE(g.ok());
  for (VertexId u = 0; u < g->num_users(); ++u) {
    const auto n = g->UserNeighbors(u);
    EXPECT_TRUE(std::is_sorted(n.begin(), n.end()));
    EXPECT_TRUE(std::adjacent_find(n.begin(), n.end()) == n.end());
  }
  for (VertexId v = 0; v < g->num_items(); ++v) {
    const auto n = g->ItemNeighbors(v);
    EXPECT_TRUE(std::is_sorted(n.begin(), n.end()));
  }
}

/// Property: the item-side CSR is an exact transpose of the user-side CSR,
/// weights included, on random tables of varying density.
class TransposePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TransposePropertyTest, ItemCsrIsExactTranspose) {
  Rng rng(GetParam());
  table::ClickTable t;
  const uint64_t users = 20 + rng.Uniform(60);
  const uint64_t items = 10 + rng.Uniform(40);
  const int rows = 100 + static_cast<int>(rng.Uniform(900));
  for (int i = 0; i < rows; ++i) {
    t.Append(static_cast<table::UserId>(rng.Uniform(users)),
             static_cast<table::ItemId>(rng.Uniform(items)),
             static_cast<table::ClickCount>(1 + rng.Uniform(9)));
  }
  auto g = GraphBuilder::FromTable(t);
  ASSERT_TRUE(g.ok());

  uint64_t user_side_edges = 0;
  uint64_t user_side_mass = 0;
  for (VertexId u = 0; u < g->num_users(); ++u) {
    const auto neighbors = g->UserNeighbors(u);
    const auto clicks = g->UserEdgeClicks(u);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      ++user_side_edges;
      user_side_mass += clicks[i];
      // Reverse edge exists with identical weight.
      const auto back = g->ItemNeighbors(neighbors[i]);
      const auto it = std::lower_bound(back.begin(), back.end(), u);
      ASSERT_TRUE(it != back.end() && *it == u);
      const size_t idx = static_cast<size_t>(it - back.begin());
      EXPECT_EQ(g->ItemEdgeClicks(neighbors[i])[idx], clicks[i]);
    }
  }
  uint64_t item_side_edges = 0;
  uint64_t item_side_mass = 0;
  for (VertexId v = 0; v < g->num_items(); ++v) {
    item_side_edges += g->ItemNeighbors(v).size();
    for (const auto c : g->ItemEdgeClicks(v)) item_side_mass += c;
  }
  EXPECT_EQ(user_side_edges, item_side_edges);
  EXPECT_EQ(user_side_mass, item_side_mass);
  EXPECT_EQ(user_side_mass, g->total_clicks());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransposePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(FlatIdMapTest, MapsEveryIdAndRejectsAbsentOnes) {
  Rng rng(42);
  std::vector<int64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    // Sequential block with gaps plus a few adversarially clustered highs —
    // the allocator patterns the SplitMix64 mix must spread apart.
    ids.push_back(static_cast<int64_t>(i) * 2 + 1'000'000);
  }
  for (int i = 0; i < 100; ++i) {
    ids.push_back((static_cast<int64_t>(1) << 40) + i * 4096);
  }
  FlatIdMap map{std::span<const int64_t>(ids)};
  EXPECT_FALSE(map.empty());
  EXPECT_GE(map.capacity(), ids.size() * 2);  // load factor <= 0.5
  uint32_t dense = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(map.Lookup(ids[i], &dense)) << ids[i];
    EXPECT_EQ(dense, static_cast<uint32_t>(i));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(map.Lookup(static_cast<int64_t>(i) * 2 + 1'000'001, &dense));
  }
  EXPECT_FALSE(map.Lookup(-7, &dense));
  FlatIdMap empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.Lookup(0, &dense));
}

TEST(GraphTest, LookupResolvesEveryIdAndMissesNearMisses) {
  // Every external id resolves to its own dense id through the graph's flat
  // id map, and near-miss ids (between the strided ids) miss.
  Rng rng(2024);
  table::ClickTable t;
  for (int i = 0; i < 4000; ++i) {
    t.Append(static_cast<table::UserId>(5'000'000 + rng.Uniform(700) * 3),
             static_cast<table::ItemId>(9'000'000 + rng.Uniform(300) * 7),
             static_cast<table::ClickCount>(1 + rng.Uniform(5)));
  }
  auto g = GraphBuilder::FromTable(t);
  ASSERT_TRUE(g.ok());

  for (VertexId u = 0; u < g->num_users(); ++u) {
    const table::UserId external = g->ExternalUserId(u);
    VertexId got = 0xFFFFFFFFu;
    ASSERT_TRUE(g->LookupUser(external, &got)) << external;
    EXPECT_EQ(got, u);
    EXPECT_FALSE(g->LookupUser(external + 1, &got));  // ids stride 3
  }
  for (VertexId v = 0; v < g->num_items(); ++v) {
    const table::ItemId external = g->ExternalItemId(v);
    VertexId got = 0xFFFFFFFFu;
    ASSERT_TRUE(g->LookupItem(external, &got)) << external;
    EXPECT_EQ(got, v);
    EXPECT_FALSE(g->LookupItem(external + 1, &got));  // ids stride 7
  }
  VertexId got = 0;
  EXPECT_FALSE(g->LookupUser(-1, &got));
  EXPECT_FALSE(g->LookupItem(0, &got));
}

TEST(GraphTest, CopiesShareStorage) {
  auto g = GraphBuilder::FromTable(Sample());
  ASSERT_TRUE(g.ok());
  const BipartiteGraph copy = *g;
  EXPECT_EQ(copy.Freeze().user_adj.data(), g->Freeze().user_adj.data());
  EXPECT_EQ(copy.Freeze().item_ids.data(), g->Freeze().item_ids.data());
}

TEST(GraphTest, DefaultGraphIsEmpty) {
  const BipartiteGraph g;
  EXPECT_EQ(g.num_users(), 0u);
  EXPECT_EQ(g.num_items(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.total_clicks(), 0u);
  EXPECT_EQ(g.UserOffsets().size(), 1u);
  EXPECT_EQ(g.ItemOffsets().size(), 1u);
  VertexId got = 0;
  EXPECT_FALSE(g.LookupUser(0, &got));
  EXPECT_FALSE(g.LookupItem(0, &got));
  EXPECT_FALSE(g.LookupUser(100, &got));
}

TEST(GraphTest, SideGenericAccessorsMatchSpecific) {
  auto g = GraphBuilder::FromTable(Sample());
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(Side::kUser), g->num_users());
  EXPECT_EQ(g->num_vertices(Side::kItem), g->num_items());
  for (VertexId u = 0; u < g->num_users(); ++u) {
    EXPECT_EQ(g->Neighbors(Side::kUser, u).size(), g->UserNeighbors(u).size());
  }
  EXPECT_EQ(Other(Side::kUser), Side::kItem);
  EXPECT_EQ(Other(Side::kItem), Side::kUser);
}

}  // namespace
}  // namespace ricd::graph
