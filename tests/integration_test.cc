// Integration tests: the full pipeline (generate -> persist -> reload ->
// detect -> screen -> rank -> evaluate) across modules, plus cross-detector
// behaviour on one shared scenario.

#include <gtest/gtest.h>

#include <memory>

#include "baselines/fraudar.h"
#include "baselines/lpa.h"
#include "baselines/naive.h"
#include "check/diff_result.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "gen/scenario.h"
#include "graph/graph_builder.h"
#include "ricd/framework.h"
#include "ricd/ui_adapter.h"
#include "table/table_io.h"

namespace ricd {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, /*seed=*/2024);
    ASSERT_TRUE(scenario.ok());
    scenario_ = new gen::Scenario(std::move(scenario).value());
    auto graph = graph::GraphBuilder::FromTable(scenario_->table);
    ASSERT_TRUE(graph.ok());
    graph_ = new graph::BipartiteGraph(std::move(graph).value());
  }

  static void TearDownTestSuite() {
    delete scenario_;
    delete graph_;
  }

  static core::RicdParams TinyParams() {
    core::RicdParams p;
    p.k1 = 8;
    p.k2 = 8;
    p.t_hot = 800;
    p.t_click = 12;
    return p;
  }

  static gen::Scenario* scenario_;
  static graph::BipartiteGraph* graph_;
};

gen::Scenario* IntegrationTest::scenario_ = nullptr;
graph::BipartiteGraph* IntegrationTest::graph_ = nullptr;

TEST_F(IntegrationTest, PersistReloadDetectMatchesInMemory) {
  const std::string path = testing::TempDir() + "/scenario.csv";
  ASSERT_TRUE(table::WriteCsv(scenario_->table, path).ok());
  auto reloaded = table::ReadCsv(path);
  ASSERT_TRUE(reloaded.ok());
  auto g2 = graph::GraphBuilder::FromTable(*reloaded);
  ASSERT_TRUE(g2.ok());

  core::FrameworkOptions options;
  options.params = TinyParams();
  core::RicdFramework ricd(options);
  auto direct = ricd.Detect(*graph_);
  auto via_disk = ricd.Detect(*g2);
  ASSERT_TRUE(direct.ok() && via_disk.ok());

  const auto m1 = eval::Evaluate(*graph_, *direct, scenario_->labels);
  const auto m2 = eval::Evaluate(*g2, *via_disk, scenario_->labels);
  EXPECT_EQ(m1.output_nodes, m2.output_nodes);
  EXPECT_EQ(m1.detected_nodes, m2.detected_nodes);
}

TEST_F(IntegrationTest, BinaryPersistenceRoundTripsScenario) {
  const std::string path = testing::TempDir() + "/scenario.bin";
  ASSERT_TRUE(table::WriteBinary(scenario_->table, path).ok());
  auto reloaded = table::ReadBinary(path);
  ASSERT_TRUE(reloaded.ok());
  ASSERT_EQ(reloaded->num_rows(), scenario_->table.num_rows());
  EXPECT_EQ(reloaded->TotalClicks(), scenario_->table.TotalClicks());
}

TEST_F(IntegrationTest, RicdIsDeterministicAcrossRuns) {
  core::FrameworkOptions options;
  options.params = TinyParams();
  core::RicdFramework ricd(options);
  auto a = ricd.RunOnGraph(*graph_);
  auto b = ricd.RunOnGraph(*graph_);
  ASSERT_TRUE(a.ok() && b.ok());
  const Status diff = check::DiffPipelineResult(*a, *b);
  EXPECT_TRUE(diff.ok()) << diff;
}

TEST_F(IntegrationTest, ExperimentHarnessProducesConsistentRows) {
  core::FrameworkOptions options;
  options.params = TinyParams();
  core::RicdFramework ricd(options);
  auto row = eval::RunExperiment(ricd, *graph_, scenario_->labels);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->method, "RICD");
  EXPECT_GE(row->elapsed_seconds, 0.0);
  EXPECT_GT(row->metrics.f1, 0.0);
}

TEST_F(IntegrationTest, ScreenedBaselinesBeatUnscreenedPrecision) {
  // The +UI adapter must improve (or preserve) precision for a noisy
  // community method on the same graph — the mechanism behind Fig. 8a.
  baselines::LpaParams lpa_params;
  baselines::Lpa raw(lpa_params);
  auto raw_result = raw.Detect(*graph_);
  ASSERT_TRUE(raw_result.ok());
  const auto raw_metrics = eval::Evaluate(*graph_, *raw_result, scenario_->labels);

  core::ScreenedDetector screened(std::make_unique<baselines::Lpa>(lpa_params),
                                  TinyParams());
  auto screened_result = screened.Detect(*graph_);
  ASSERT_TRUE(screened_result.ok());
  const auto screened_metrics =
      eval::Evaluate(*graph_, *screened_result, scenario_->labels);

  EXPECT_GT(screened_metrics.precision, raw_metrics.precision);
}

TEST_F(IntegrationTest, RicdBeatsDenseBaselineOnRecallAtSamePrecision) {
  // FRAUDAR+UI: high precision but bounded recall (block budget); RICD
  // should reach at least its recall (the Fig. 8a relationship).
  core::FrameworkOptions options;
  options.params = TinyParams();
  core::RicdFramework ricd(options);
  auto ricd_result = ricd.Detect(*graph_);
  ASSERT_TRUE(ricd_result.ok());
  const auto ricd_metrics =
      eval::Evaluate(*graph_, *ricd_result, scenario_->labels);

  core::ScreenedDetector fraudar(std::make_unique<baselines::Fraudar>(),
                                 TinyParams());
  auto fraudar_result = fraudar.Detect(*graph_);
  ASSERT_TRUE(fraudar_result.ok());
  const auto fraudar_metrics =
      eval::Evaluate(*graph_, *fraudar_result, scenario_->labels);

  EXPECT_GE(ricd_metrics.recall, fraudar_metrics.recall * 0.95);
}

TEST_F(IntegrationTest, HotItemsNeverReportedByRicd) {
  core::FrameworkOptions options;
  options.params = TinyParams();
  core::RicdFramework ricd(options);
  auto result = ricd.Detect(*graph_);
  ASSERT_TRUE(result.ok());
  for (const auto v : result->AllItems()) {
    EXPECT_LT(graph_->ItemTotalClicks(v), options.params.t_hot)
        << "item behaviour verification must drop hot items";
  }
}

TEST_F(IntegrationTest, PrintRowsProducesRows) {
  std::vector<eval::ExperimentRow> rows;
  eval::ExperimentRow row;
  row.method = "RICD";
  row.metrics.precision = 0.9;
  row.metrics.recall = 0.5;
  row.metrics.f1 = 0.64;
  row.elapsed_seconds = 1.25;
  row.metrics.output_nodes = 42;
  rows.push_back(row);

  std::ostringstream table_out;
  eval::PrintRows(table_out, rows);
  EXPECT_NE(table_out.str().find("RICD"), std::string::npos);
  EXPECT_NE(table_out.str().find("0.900"), std::string::npos);
}

}  // namespace
}  // namespace ricd
