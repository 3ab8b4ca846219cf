// Randomized property tests: invariants that must hold on any generated
// workload, swept across seeds with TEST_P. These guard the contracts the
// paper's Section III-B "desired properties" state.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "check/validate.h"
#include "common/random.h"
#include "eval/metrics.h"
#include "gen/scenario.h"
#include "graph/graph_builder.h"
#include "graph_test_peer.h"
#include "ricd/camouflage_bound.h"
#include "ricd/framework.h"

namespace ricd {
namespace {

core::FrameworkOptions TinyOptions() {
  core::FrameworkOptions options;
  options.params.k1 = 8;
  options.params.k2 = 8;
  options.params.t_hot = 800;
  options.params.t_click = 12;
  return options;
}

class ScenarioPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, GetParam());
    ASSERT_TRUE(scenario.ok());
    scenario_ = std::move(scenario).value();
    auto graph = graph::GraphBuilder::FromTable(scenario_.table);
    ASSERT_TRUE(graph.ok());
    graph_ = std::move(graph).value();
  }

  std::set<std::pair<graph::Side, graph::VertexId>> NodeSet(
      const baselines::DetectionResult& r) const {
    std::set<std::pair<graph::Side, graph::VertexId>> out;
    for (const auto u : r.AllUsers()) out.emplace(graph::Side::kUser, u);
    for (const auto v : r.AllItems()) out.emplace(graph::Side::kItem, v);
    return out;
  }

  gen::Scenario scenario_;
  graph::BipartiteGraph graph_;
};

TEST_P(ScenarioPropertyTest, ScreenedOutputIsSubsetOfUnscreened) {
  core::FrameworkOptions full = TinyOptions();
  core::FrameworkOptions none = TinyOptions();
  none.screening = core::ScreeningMode::kNone;

  auto screened = core::RicdFramework(full).Detect(graph_);
  auto raw = core::RicdFramework(none).Detect(graph_);
  ASSERT_TRUE(screened.ok() && raw.ok());

  const auto screened_nodes = NodeSet(*screened);
  const auto raw_nodes = NodeSet(*raw);
  EXPECT_TRUE(std::includes(raw_nodes.begin(), raw_nodes.end(),
                            screened_nodes.begin(), screened_nodes.end()))
      << "screening must only remove nodes, never add";
}

TEST_P(ScenarioPropertyTest, DetectionGroupsMeetSizeBounds) {
  core::FrameworkOptions none = TinyOptions();
  none.screening = core::ScreeningMode::kNone;
  auto raw = core::RicdFramework(none).Detect(graph_);
  ASSERT_TRUE(raw.ok());
  for (const auto& group : raw->groups) {
    EXPECT_GE(group.users.size(), none.params.k1);
    EXPECT_GE(group.items.size(), none.params.k2);
  }
}

TEST_P(ScenarioPropertyTest, OutputNodesExistAndAreUnique) {
  auto result = core::RicdFramework(TinyOptions()).Detect(graph_);
  ASSERT_TRUE(result.ok());
  const auto users = result->AllUsers();
  const auto items = result->AllItems();
  EXPECT_TRUE(std::adjacent_find(users.begin(), users.end()) == users.end());
  for (const auto u : users) EXPECT_LT(u, graph_.num_users());
  for (const auto v : items) EXPECT_LT(v, graph_.num_items());
}

TEST_P(ScenarioPropertyTest, HotItemsNeverInScreenedOutput) {
  const auto options = TinyOptions();
  auto result = core::RicdFramework(options).Detect(graph_);
  ASSERT_TRUE(result.ok());
  for (const auto v : result->AllItems()) {
    EXPECT_LT(graph_.ItemTotalClicks(v), options.params.t_hot);
  }
}

TEST_P(ScenarioPropertyTest, TableVIOrderingHoldsAcrossSeeds) {
  core::FrameworkOptions full = TinyOptions();
  core::FrameworkOptions user_only = TinyOptions();
  user_only.screening = core::ScreeningMode::kUserCheckOnly;
  core::FrameworkOptions none = TinyOptions();
  none.screening = core::ScreeningMode::kNone;

  auto m_full = eval::Evaluate(
      graph_, *core::RicdFramework(full).Detect(graph_), scenario_.labels);
  auto m_user = eval::Evaluate(
      graph_, *core::RicdFramework(user_only).Detect(graph_), scenario_.labels);
  auto m_none = eval::Evaluate(
      graph_, *core::RicdFramework(none).Detect(graph_), scenario_.labels);

  EXPECT_GE(m_full.precision, m_user.precision);
  EXPECT_GE(m_user.precision, m_none.precision);
  EXPECT_GE(m_none.recall, m_user.recall);
  EXPECT_GE(m_user.recall, m_full.recall);
}

TEST_P(ScenarioPropertyTest, MetricsAreWellFormed) {
  auto result = core::RicdFramework(TinyOptions()).Detect(graph_);
  ASSERT_TRUE(result.ok());
  const auto m = eval::Evaluate(graph_, *result, scenario_.labels);
  EXPECT_GE(m.precision, 0.0);
  EXPECT_LE(m.precision, 1.0);
  EXPECT_GE(m.recall, 0.0);
  EXPECT_LE(m.recall, 1.0);
  EXPECT_LE(m.detected_nodes, m.output_nodes);
  EXPECT_LE(m.detected_nodes, m.known_nodes);
  if (m.precision > 0.0 && m.recall > 0.0) {
    EXPECT_LE(m.f1, std::max(m.precision, m.recall));
    EXPECT_GE(m.f1, std::min(m.precision, m.recall) * 0.99);
  }
}

TEST_P(ScenarioPropertyTest, GeneratedGraphSatisfiesAllInvariants) {
  const Status status = check::ValidateBipartiteGraph(graph_);
  EXPECT_TRUE(status.ok()) << status;
}

// The validator must not just accept everything: mutate the generated graph
// in a seed-dependent spot and require rejection. Together with the test
// above this pins both directions of ValidateBipartiteGraph on every seed.
TEST_P(ScenarioPropertyTest, MutatedGraphFailsValidation) {
  Rng rng(GetParam());
  ASSERT_GT(graph_.num_edges(), 0u);
  using graph::GraphArrays;
  using graph::GraphTestPeer;

  graph::BipartiteGraph corrupted =
      GraphTestPeer::Corrupted(graph_, [&rng](GraphArrays& a) {
        a.user_adj[rng.Uniform(static_cast<uint32_t>(a.user_adj.size()))] =
            static_cast<graph::VertexId>(a.item_ids.size()) + 1 +
            rng.Uniform(100);
      });
  EXPECT_FALSE(check::ValidateBipartiteGraph(corrupted).ok());

  corrupted = GraphTestPeer::Corrupted(graph_, [&rng](GraphArrays& a) {
    a.user_clicks[rng.Uniform(static_cast<uint32_t>(a.user_clicks.size()))] =
        0;
  });
  EXPECT_FALSE(check::ValidateBipartiteGraph(corrupted).ok());

  corrupted = GraphTestPeer::Corrupted(graph_, [&rng](GraphArrays& a) {
    a.total_clicks += 1 + rng.Uniform(1000);
  });
  EXPECT_FALSE(check::ValidateBipartiteGraph(corrupted).ok());

  // The corruptions edited private copies: the shared graph is intact.
  EXPECT_TRUE(check::ValidateBipartiteGraph(graph_).ok());
}

TEST_P(ScenarioPropertyTest, DeterministicDetection) {
  core::RicdFramework ricd(TinyOptions());
  auto a = ricd.Detect(graph_);
  auto b = ricd.Detect(graph_);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(NodeSet(*a), NodeSet(*b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioPropertyTest,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

/// Property (3) of Section III-B, exercised directly: camouflage edges can
/// never hide the biclique an attack needs. We plant a clean k x k block,
/// add increasingly aggressive random camouflage from the same accounts,
/// and assert the block stays detected.
class CamouflagePropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CamouflagePropertyTest, CamouflageCannotHideThePlantedBiclique) {
  const uint32_t camouflage_edges_per_worker = GetParam();
  Rng rng(4242);

  table::ClickTable t;
  // Background noise items.
  for (table::UserId u = 0; u < 500; ++u) {
    for (int d = 0; d < 4; ++d) {
      t.Append(u, static_cast<table::ItemId>(rng.Uniform(300)), 1);
    }
  }
  // Planted 10 x 10 block.
  for (table::UserId w = 1000; w < 1010; ++w) {
    for (table::ItemId i = 5000; i < 5010; ++i) t.Append(w, i, 14);
    for (uint32_t c = 0; c < camouflage_edges_per_worker; ++c) {
      t.Append(w, static_cast<table::ItemId>(rng.Uniform(300)),
               static_cast<table::ClickCount>(1 + rng.Uniform(2)));
    }
  }
  t.ConsolidateDuplicates();
  auto graph = graph::GraphBuilder::FromTable(t).value();

  core::FrameworkOptions options;
  options.params.k1 = 10;
  options.params.k2 = 10;
  options.params.t_hot = 1000;
  options.params.t_click = 12;
  auto result = core::RicdFramework(options).Detect(graph);
  ASSERT_TRUE(result.ok());

  std::unordered_set<table::UserId> flagged;
  for (const auto u : result->AllUsers()) {
    flagged.insert(graph.ExternalUserId(u));
  }
  for (table::UserId w = 1000; w < 1010; ++w) {
    EXPECT_TRUE(flagged.count(w) > 0)
        << "worker " << w << " escaped with " << camouflage_edges_per_worker
        << " camouflage edges";
  }
}

INSTANTIATE_TEST_SUITE_P(CamouflageLevels, CamouflagePropertyTest,
                         ::testing::Values(0u, 5u, 20u, 60u));

TEST(CamouflageBoundSanityTest, PlantedBicliqueExceedsSafeBudget) {
  // The planted 10 x 10 block uses 100 fake edges between 10 accounts and
  // 10 items; the Zarankiewicz-safe budget for that account/item footprint
  // at (k1, k2) = (10, 10) is below 100 — i.e. the attack *had* to create
  // a detectable biclique (the paper's camouflage-restriction argument).
  EXPECT_LT(core::ZarankiewiczUpperBound(10, 10, 10, 10), 100u);
}

}  // namespace
}  // namespace ricd
