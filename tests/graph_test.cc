// Unit + property tests for the bipartite graph and its builder.

#include "graph/bipartite_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
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

/// Property: duplicate (user, item) rows merge into one edge whose weight is
/// the saturating sum of their clicks, wherever in the table they sit. Each
/// random table draws its rows from a few hundred pairs, so most pairs
/// repeat, and two rows near the ClickCount maximum land on one pair at
/// random positions, so its sum saturates. Every edge weight, degree and
/// click total is checked against a map oracle.
class DuplicateMergePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DuplicateMergePropertyTest, WeightsDegreesAndTotalsMatchOracle) {
  constexpr uint64_t kMaxClicks = std::numeric_limits<table::ClickCount>::max();
  Rng rng(GetParam());
  const uint64_t users = 5 + rng.Uniform(20);
  const uint64_t items = 5 + rng.Uniform(20);
  const uint64_t rows = 500 + rng.Uniform(1500);
  const uint64_t big_first = rng.Uniform(rows);
  const uint64_t big_second = rng.Uniform(rows);
  const auto big_user = static_cast<table::UserId>(rng.Uniform(users));
  const auto big_item = static_cast<table::ItemId>(rng.Uniform(items));

  table::ClickTable t;
  std::map<std::pair<table::UserId, table::ItemId>, uint64_t> weight;
  const auto append = [&](table::UserId user, table::ItemId item,
                          table::ClickCount clicks) {
    t.Append(user, item, clicks);
    uint64_t& w = weight[{user, item}];
    w = std::min(w + clicks, kMaxClicks);
  };
  for (uint64_t r = 0; r < rows; ++r) {
    if (r == big_first) append(big_user, big_item, kMaxClicks - 3);
    if (r == big_second) append(big_user, big_item, kMaxClicks / 2);
    append(static_cast<table::UserId>(rng.Uniform(users)),
           static_cast<table::ItemId>(rng.Uniform(items)),
           static_cast<table::ClickCount>(1 + rng.Uniform(9)));
  }
  ASSERT_EQ(weight.at({big_user, big_item}), kMaxClicks);

  auto g = GraphBuilder::FromTable(t);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), weight.size());
  std::map<table::UserId, std::pair<uint32_t, uint64_t>> user_oracle;
  std::map<table::ItemId, std::pair<uint32_t, uint64_t>> item_oracle;
  uint64_t total = 0;
  for (const auto& [pair, w] : weight) {
    VertexId u = 0;
    VertexId v = 0;
    ASSERT_TRUE(g->LookupUser(pair.first, &u));
    ASSERT_TRUE(g->LookupItem(pair.second, &v));
    EXPECT_EQ(g->EdgeWeight(u, v), w)
        << "user " << pair.first << " item " << pair.second;
    ++user_oracle[pair.first].first;
    user_oracle[pair.first].second += w;
    ++item_oracle[pair.second].first;
    item_oracle[pair.second].second += w;
    total += w;
  }
  for (const auto& [user, want] : user_oracle) {
    VertexId u = 0;
    ASSERT_TRUE(g->LookupUser(user, &u));
    EXPECT_EQ(g->Degree(Side::kUser, u), want.first) << "user " << user;
    EXPECT_EQ(g->UserTotalClicks(u), want.second) << "user " << user;
  }
  for (const auto& [item, want] : item_oracle) {
    VertexId v = 0;
    ASSERT_TRUE(g->LookupItem(item, &v));
    EXPECT_EQ(g->Degree(Side::kItem, v), want.first) << "item " << item;
    EXPECT_EQ(g->ItemTotalClicks(v), want.second) << "item " << item;
  }
  EXPECT_EQ(g->num_users(), user_oracle.size());
  EXPECT_EQ(g->num_items(), item_oracle.size());
  EXPECT_EQ(g->total_clicks(), total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DuplicateMergePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

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

/// Reference TableToBiGraph, written for clarity: hash maps compact ids in
/// first-seen order, an index array goes through a stable counting sort by
/// item and then by user, and the duplicate merge, the transpose and the
/// weighted degrees are separate passes. Clicks must be positive.
GraphArrays ReferenceBuild(const table::ClickTable& table) {
  GraphArrays g;
  const size_t n = table.num_rows();
  std::unordered_map<table::UserId, VertexId> user_dense;
  std::unordered_map<table::ItemId, VertexId> item_dense;
  std::vector<VertexId> row_user(n);
  std::vector<VertexId> row_item(n);
  for (size_t i = 0; i < n; ++i) {
    const auto [uit, uinserted] = user_dense.try_emplace(
        table.user(i), static_cast<VertexId>(g.user_ids.size()));
    if (uinserted) g.user_ids.push_back(table.user(i));
    row_user[i] = uit->second;
    const auto [iit, iinserted] = item_dense.try_emplace(
        table.item(i), static_cast<VertexId>(g.item_ids.size()));
    if (iinserted) g.item_ids.push_back(table.item(i));
    row_item[i] = iit->second;
  }
  const auto num_users = static_cast<uint32_t>(g.user_ids.size());
  const auto num_items = static_cast<uint32_t>(g.item_ids.size());

  const auto sort_by = [](const std::vector<VertexId>& key, uint32_t num_keys,
                          const std::vector<size_t>& rows,
                          std::vector<size_t>& out) {
    std::vector<size_t> start(num_keys + 1, 0);
    for (const VertexId k : key) ++start[k + 1];
    for (uint32_t k = 0; k < num_keys; ++k) start[k + 1] += start[k];
    for (const size_t row : rows) out[start[key[row]]++] = row;
  };
  std::vector<size_t> by_item(n);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  sort_by(row_item, num_items, order, by_item);
  sort_by(row_user, num_users, by_item, order);

  constexpr uint64_t kMaxClicks = std::numeric_limits<table::ClickCount>::max();
  g.user_offsets.assign(num_users + 1, 0);
  VertexId prev_user = std::numeric_limits<VertexId>::max();
  VertexId prev_item = std::numeric_limits<VertexId>::max();
  for (const size_t i : order) {
    const VertexId u = row_user[i];
    const VertexId v = row_item[i];
    if (u == prev_user && v == prev_item) {
      const uint64_t sum =
          static_cast<uint64_t>(g.user_clicks.back()) + table.clicks(i);
      g.user_clicks.back() =
          static_cast<table::ClickCount>(std::min(sum, kMaxClicks));
    } else {
      g.user_adj.push_back(v);
      g.user_clicks.push_back(table.clicks(i));
      g.user_offsets[u + 1]++;
      prev_user = u;
      prev_item = v;
    }
  }
  for (uint32_t u = 0; u < num_users; ++u) {
    g.user_offsets[u + 1] += g.user_offsets[u];
  }

  g.item_offsets.assign(num_items + 1, 0);
  for (const VertexId v : g.user_adj) g.item_offsets[v + 1]++;
  for (uint32_t v = 0; v < num_items; ++v) {
    g.item_offsets[v + 1] += g.item_offsets[v];
  }
  g.item_adj.resize(g.user_adj.size());
  g.item_clicks.resize(g.user_adj.size());
  std::vector<uint64_t> cursor(g.item_offsets.begin(),
                               g.item_offsets.end() - 1);
  for (uint32_t u = 0; u < num_users; ++u) {
    for (uint64_t e = g.user_offsets[u]; e < g.user_offsets[u + 1]; ++e) {
      const uint64_t slot = cursor[g.user_adj[e]]++;
      g.item_adj[slot] = u;
      g.item_clicks[slot] = g.user_clicks[e];
    }
  }

  g.user_total_clicks.assign(num_users, 0);
  g.item_total_clicks.assign(num_items, 0);
  for (uint32_t u = 0; u < num_users; ++u) {
    for (uint64_t e = g.user_offsets[u]; e < g.user_offsets[u + 1]; ++e) {
      g.user_total_clicks[u] += g.user_clicks[e];
      g.item_total_clicks[g.user_adj[e]] += g.user_clicks[e];
    }
    g.total_clicks += g.user_total_clicks[u];
  }
  return g;
}

template <typename T>
void ExpectSameArray(std::span<const T> got, std::span<const T> want,
                     const char* name) {
  EXPECT_EQ(got.size(), want.size()) << name;
  EXPECT_TRUE(std::ranges::equal(got, want)) << name << " differs";
}

/// FromTable must reproduce every section of the reference build exactly:
/// dense ids in first-seen row order, sorted merged rows, both totals.
void ExpectMatchesReference(const table::ClickTable& t) {
  auto built = GraphBuilder::FromTable(t);
  ASSERT_TRUE(built.ok()) << built.status();
  const GraphArrays ref = ReferenceBuild(t);
  const GraphSections got = built->Freeze();
  const GraphSections want = ref.Sections();
  ExpectSameArray(got.user_offsets, want.user_offsets, "user_offsets");
  ExpectSameArray(got.item_offsets, want.item_offsets, "item_offsets");
  ExpectSameArray(got.user_adj, want.user_adj, "user_adj");
  ExpectSameArray(got.item_adj, want.item_adj, "item_adj");
  ExpectSameArray(got.user_clicks, want.user_clicks, "user_clicks");
  ExpectSameArray(got.item_clicks, want.item_clicks, "item_clicks");
  ExpectSameArray(got.user_total_clicks, want.user_total_clicks,
                  "user_total_clicks");
  ExpectSameArray(got.item_total_clicks, want.item_total_clicks,
                  "item_total_clicks");
  ExpectSameArray(got.user_ids, want.user_ids, "user_ids");
  ExpectSameArray(got.item_ids, want.item_ids, "item_ids");
  EXPECT_EQ(got.total_clicks, want.total_clicks);
}

table::ClickTable Shuffled(const table::ClickTable& t, Rng& rng) {
  std::vector<size_t> order(t.num_rows());
  std::iota(order.begin(), order.end(), size_t{0});
  rng.Shuffle(order);
  table::ClickTable out;
  for (const size_t i : order) out.Append(t.row(i));
  return out;
}

/// Random rows over a few hundred users and items, so pairs repeat.
table::ClickTable RandomRows(Rng& rng) {
  const uint64_t users = 1 + rng.Uniform(300);
  const uint64_t items = 1 + rng.Uniform(200);
  const uint64_t rows = rng.Uniform(3000);
  table::ClickTable t;
  for (uint64_t r = 0; r < rows; ++r) {
    t.Append(static_cast<table::UserId>(rng.Uniform(users)),
             static_cast<table::ItemId>(rng.Uniform(items)),
             static_cast<table::ClickCount>(1 + rng.Uniform(20)));
  }
  return t;
}

class BuilderDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(BuilderDifferentialTest, ShuffledAndConsolidatedRows) {
  Rng rng(GetParam());
  table::ClickTable t = RandomRows(rng);
  ExpectMatchesReference(t);
  ExpectMatchesReference(Shuffled(t, rng));
  t.ConsolidateDuplicates();
  ExpectMatchesReference(t);
}

TEST_P(BuilderDifferentialTest, UserRowsInSeveralRuns) {
  // User 7's rows come in several runs separated by other users' rows, so
  // the same external user starts a run more than once.
  Rng rng(GetParam());
  table::ClickTable t;
  const uint64_t runs = 2 + rng.Uniform(5);
  for (uint64_t run = 0; run < runs; ++run) {
    for (uint64_t r = 1 + rng.Uniform(20); r > 0; --r) {
      t.Append(7, static_cast<table::ItemId>(rng.Uniform(40)),
               static_cast<table::ClickCount>(1 + rng.Uniform(9)));
    }
    for (uint64_t r = 1 + rng.Uniform(20); r > 0; --r) {
      t.Append(static_cast<table::UserId>(100 + rng.Uniform(30)),
               static_cast<table::ItemId>(rng.Uniform(40)),
               static_cast<table::ClickCount>(1 + rng.Uniform(9)));
    }
  }
  ExpectMatchesReference(t);
}

TEST_P(BuilderDifferentialTest, DuplicateHeavySaturatingPairs) {
  constexpr table::ClickCount kMaxClicks =
      std::numeric_limits<table::ClickCount>::max();
  Rng rng(GetParam());
  table::ClickTable t;
  for (int r = 0; r < 2000; ++r) {
    t.Append(static_cast<table::UserId>(rng.Uniform(4)),
             static_cast<table::ItemId>(rng.Uniform(4)),
             static_cast<table::ClickCount>(kMaxClicks / 4 -
                                            rng.Uniform(1000)));
  }
  ExpectMatchesReference(t);
  auto g = GraphBuilder::FromTable(t);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->Freeze().user_clicks[0], kMaxClicks);
}

TEST_P(BuilderDifferentialTest, NegativeAndWideStridedIds) {
  Rng rng(GetParam());
  table::ClickTable t;
  for (int r = 0; r < 1500; ++r) {
    const auto k = static_cast<int64_t>(rng.Uniform(200));
    t.Append(rng.Bernoulli(0.5) ? -1 - k : k << 40,
             static_cast<int64_t>(rng.Uniform(100)) * (int64_t{1} << 40) -
                 (int64_t{1} << 45),
             static_cast<table::ClickCount>(1 + rng.Uniform(9)));
  }
  ExpectMatchesReference(t);
  ExpectMatchesReference(Shuffled(t, rng));
}

TEST_P(BuilderDifferentialTest, ItemClickedByAllAndUserClickingAll) {
  Rng rng(GetParam());
  const uint64_t users = 1 + rng.Uniform(500);
  const uint64_t items = 1 + rng.Uniform(500);
  table::ClickTable star;  // item 5 clicked by every user
  for (uint64_t u = 0; u < users; ++u) {
    star.Append(static_cast<table::UserId>(u), 5,
                static_cast<table::ClickCount>(1 + rng.Uniform(9)));
  }
  ExpectMatchesReference(Shuffled(star, rng));
  table::ClickTable fan;  // user 5 clicks every item
  for (uint64_t v = 0; v < items; ++v) {
    fan.Append(5, static_cast<table::ItemId>(v),
               static_cast<table::ClickCount>(1 + rng.Uniform(9)));
  }
  ExpectMatchesReference(Shuffled(fan, rng));
}

TEST_P(BuilderDifferentialTest, ZeroClickRowNamesTheFirstOffendingIndex) {
  Rng rng(GetParam());
  table::ClickTable t = RandomRows(rng);
  const size_t bad = rng.Uniform(t.num_rows() + 1);
  table::ClickTable with_zero;
  for (size_t i = 0; i <= t.num_rows(); ++i) {
    if (i == bad) with_zero.Append(3, 4, 0);
    if (i < t.num_rows()) with_zero.Append(t.row(i));
  }
  with_zero.Append(5, 6, 0);  // a later offender is not the one named
  auto g = GraphBuilder::FromTable(with_zero);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.status().message(),
            StringPrintf("row %zu has zero clicks", bad));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuilderDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(GraphBuilderTest, EmptyTableMatchesReference) {
  ExpectMatchesReference(table::ClickTable());
}

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

TEST(FlatIdMapTest, FindOrInsertNumbersKeysInFirstSeenOrder) {
  Rng rng(7);
  FlatIdMap map;
  std::vector<int64_t> first_seen;
  for (int i = 0; i < 5000; ++i) {
    // Negative, small and 2^40-strided keys, most of them repeats.
    const auto k = static_cast<int64_t>(rng.Uniform(700));
    const int64_t key = k % 3 == 0 ? -k : (k % 3 == 1 ? k : k << 40);
    const auto seen = std::find(first_seen.begin(), first_seen.end(), key);
    const auto want = static_cast<uint32_t>(seen - first_seen.begin());
    if (seen == first_seen.end()) first_seen.push_back(key);
    ASSERT_EQ(map.FindOrInsert(key), want) << key;
    ASSERT_EQ(map.size(), first_seen.size());
    ASSERT_GE(map.capacity(), map.size() * 2);  // grown at load 0.5
  }
  uint32_t dense = 0;
  for (size_t i = 0; i < first_seen.size(); ++i) {
    ASSERT_TRUE(map.Lookup(first_seen[i], &dense));
    EXPECT_EQ(dense, static_cast<uint32_t>(i));
  }
  EXPECT_FALSE(map.Lookup(701, &dense));
  // A map built over the first-seen ids gives the same numbering.
  const FlatIdMap built{std::span<const int64_t>(first_seen)};
  EXPECT_EQ(built.capacity(), map.capacity());
  for (size_t i = 0; i < first_seen.size(); ++i) {
    ASSERT_TRUE(built.Lookup(first_seen[i], &dense));
    EXPECT_EQ(dense, static_cast<uint32_t>(i));
  }
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
