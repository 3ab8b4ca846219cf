// Differential tests for src/snapshot: the full RICD pipeline must produce
// bit-identical results on a freshly built graph and on the same graph
// after a save -> mmap-load round trip through the binary container
// (check::DiffPipelineResult). Risk scores and I2I scores are compared
// with exact double equality — the snapshot stores the same CSR arrays the
// builder produced, so there is no room for drift.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/diff_result.h"
#include "gen/scenario.h"
#include "graph/graph_builder.h"
#include "i2i/i2i_score.h"
#include "ricd/framework.h"
#include "snapshot/snapshot.h"

namespace ricd {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

core::RicdParams TinyParams() {
  core::RicdParams p;
  p.k1 = 6;
  p.k2 = 6;
  p.t_hot = 800;
  p.t_click = 12;
  return p;
}

void ExpectIdenticalPipelines(uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, seed);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  auto fresh = graph::GraphBuilder::FromTable(scenario->table);
  ASSERT_TRUE(fresh.ok()) << fresh.status();

  const std::string path =
      TempPath("diff_" + std::to_string(seed) + ".snap");
  ASSERT_TRUE(snapshot::SaveSnapshot(*fresh, path, &scenario->labels).ok());
  auto view = snapshot::GraphView::Map(path);
  ASSERT_TRUE(view.ok()) << view.status();
  const graph::BipartiteGraph& loaded = view->graph();

  // Graph-level identity.
  ASSERT_EQ(fresh->num_users(), loaded.num_users());
  ASSERT_EQ(fresh->num_items(), loaded.num_items());
  ASSERT_EQ(fresh->num_edges(), loaded.num_edges());
  ASSERT_EQ(fresh->total_clicks(), loaded.total_clicks());
  for (graph::VertexId u = 0; u < fresh->num_users(); ++u) {
    ASSERT_EQ(fresh->ExternalUserId(u), loaded.ExternalUserId(u));
    const auto a = fresh->UserNeighbors(u);
    const auto b = loaded.UserNeighbors(u);
    ASSERT_EQ(std::vector<graph::VertexId>(a.begin(), a.end()),
              std::vector<graph::VertexId>(b.begin(), b.end()));
    const auto wa = fresh->UserEdgeClicks(u);
    const auto wb = loaded.UserEdgeClicks(u);
    ASSERT_EQ(std::vector<table::ClickCount>(wa.begin(), wa.end()),
              std::vector<table::ClickCount>(wb.begin(), wb.end()));
  }

  // External-id lookups behave identically (hash map vs flat id map).
  for (graph::VertexId u = 0; u < fresh->num_users(); u += 17) {
    graph::VertexId dense = 0;
    ASSERT_TRUE(loaded.LookupUser(fresh->ExternalUserId(u), &dense));
    EXPECT_EQ(dense, u);
  }
  graph::VertexId missing = 0;
  EXPECT_FALSE(loaded.LookupUser(-1234567, &missing));
  EXPECT_FALSE(loaded.LookupItem(-7654321, &missing));

  // Full pipeline, bit-identical field for field (risks exact).
  core::FrameworkOptions options;
  options.params = TinyParams();
  core::RicdFramework framework(options);
  auto fresh_run = framework.RunOnGraph(*fresh);
  auto loaded_run = framework.RunOnGraph(loaded);
  ASSERT_TRUE(fresh_run.ok()) << fresh_run.status();
  ASSERT_TRUE(loaded_run.ok()) << loaded_run.status();
  EXPECT_GT(fresh_run->detection.groups.size(), 0u)
      << "scenario produced no groups; diff is vacuous";
  const Status diff = check::DiffPipelineResult(*fresh_run, *loaded_run);
  EXPECT_TRUE(diff.ok()) << diff;

  // I2I scores (Eq. 1), exact equality over every item pair sampled.
  i2i::I2iScorer fresh_scorer(*fresh);
  i2i::I2iScorer loaded_scorer(loaded);
  for (graph::VertexId v = 0; v < fresh->num_items(); v += 13) {
    const auto fa = fresh_scorer.RelatedItems(v, 5);
    const auto la = loaded_scorer.RelatedItems(v, 5);
    ASSERT_EQ(fa.size(), la.size());
    for (size_t i = 0; i < fa.size(); ++i) {
      EXPECT_EQ(fa[i].item, la[i].item);
      EXPECT_EQ(fa[i].score, la[i].score);  // exact
    }
  }

  // Labels round-trip through the container.
  ASSERT_TRUE(view->has_labels());
  const gen::LabelSet labels = view->Labels();
  EXPECT_EQ(labels.abnormal_users, scenario->labels.abnormal_users);
  EXPECT_EQ(labels.abnormal_items, scenario->labels.abnormal_items);
}

TEST(SnapshotDiffTest, PipelineBitIdenticalSeed2024) {
  ExpectIdenticalPipelines(2024);
}

TEST(SnapshotDiffTest, PipelineBitIdenticalSeed7) {
  ExpectIdenticalPipelines(7);
}

TEST(SnapshotDiffTest, OwningReadMatchesMmap) {
  auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, 99);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  auto fresh = graph::GraphBuilder::FromTable(scenario->table);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  const std::string path = TempPath("diff_read_vs_map.snap");
  ASSERT_TRUE(snapshot::SaveSnapshot(*fresh, path).ok());

  auto mapped = snapshot::GraphView::Map(path);
  auto read = snapshot::GraphView::Read(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  ASSERT_TRUE(read.ok()) << read.status();
  ASSERT_EQ(mapped->graph().num_edges(), read->graph().num_edges());
  for (graph::VertexId u = 0; u < mapped->graph().num_users(); ++u) {
    const auto a = mapped->graph().UserNeighbors(u);
    const auto b = read->graph().UserNeighbors(u);
    ASSERT_EQ(std::vector<graph::VertexId>(a.begin(), a.end()),
              std::vector<graph::VertexId>(b.begin(), b.end()));
  }
  EXPECT_FALSE(mapped->has_labels());
}

TEST(SnapshotDiffTest, TakenGraphOutlivesView) {
  auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, 3);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  auto fresh = graph::GraphBuilder::FromTable(scenario->table);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  const std::string path = TempPath("diff_take.snap");
  ASSERT_TRUE(snapshot::SaveSnapshot(*fresh, path).ok());

  graph::BipartiteGraph taken = [&] {
    auto view = snapshot::GraphView::Map(path);
    EXPECT_TRUE(view.ok()) << view.status();
    return std::move(*view).TakeGraph();
  }();  // view destroyed here; the graph must retain the mapping
  EXPECT_TRUE(taken.is_external());
  EXPECT_EQ(taken.num_edges(), fresh->num_edges());
  uint64_t sum = 0;
  for (graph::VertexId u = 0; u < taken.num_users(); ++u) {
    for (const auto w : taken.UserEdgeClicks(u)) sum += w;
  }
  EXPECT_EQ(sum, fresh->total_clicks());

  // Copies share the retention and survive the original.
  graph::BipartiteGraph copy = taken;
  EXPECT_EQ(copy.total_clicks(), fresh->total_clicks());
}

}  // namespace
}  // namespace ricd
