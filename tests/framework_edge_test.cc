// Edge-case tests for the framework and evaluation harness: empty inputs,
// failing detectors, degenerate parameters, and feedback-loop corner cases.

#include <gtest/gtest.h>

#include "eval/experiment.h"
#include "gen/scenario.h"
#include "graph/graph_builder.h"
#include "ricd/framework.h"

namespace ricd {
namespace {

TEST(FrameworkEdgeTest, EmptyTableYieldsEmptyResult) {
  core::FrameworkOptions options;
  options.params.t_hot = 100;  // avoid the 80/20 derivation on nothing
  core::RicdFramework ricd(options);
  auto result = ricd.Run(table::ClickTable());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->detection.groups.empty());
  EXPECT_TRUE(result->ranked.users.empty());
}

TEST(FrameworkEdgeTest, SingleEdgeGraph) {
  table::ClickTable t;
  t.Append(1, 1, 5);
  core::FrameworkOptions options;
  options.params.t_hot = 100;
  core::RicdFramework ricd(options);
  auto result = ricd.Run(t);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->detection.groups.empty());
}

TEST(FrameworkEdgeTest, InvalidParamsPropagate) {
  core::RicdParams bad[4];
  bad[0].alpha = 2.0;
  bad[1].alpha = 0.0;
  bad[2].k1 = 0;
  bad[3].k2 = 0;
  table::ClickTable t;
  t.Append(1, 1, 5);
  for (const core::RicdParams& params : bad) {
    SCOPED_TRACE(testing::Message() << "alpha=" << params.alpha
                                    << " k1=" << params.k1
                                    << " k2=" << params.k2);
    core::FrameworkOptions options;
    options.params = params;
    auto result = core::RicdFramework(options).Run(t);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FrameworkEdgeTest, FeedbackStopsWhenNothingLeftToRelax) {
  // T_click already at the floor and alpha at its floor: the loop must
  // terminate rather than spin.
  table::ClickTable t;
  t.Append(1, 1, 5);
  t.Append(2, 1, 5);
  core::FrameworkOptions options;
  options.params.t_hot = 100;
  options.params.t_click = 2;
  options.params.alpha = 0.5;
  options.expectation = 1000;  // unreachable
  options.max_feedback_rounds = 10;
  core::RicdFramework ricd(options);
  auto result = ricd.Run(t);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->feedback_rounds_used, 0u);
}

TEST(FrameworkEdgeTest, FeedbackCapsAtMaxRounds) {
  auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, 42).value();
  core::FrameworkOptions options;
  options.params.t_hot = 800;
  options.params.t_click = 4000;
  options.expectation = 1u << 30;  // never satisfiable
  options.max_feedback_rounds = 2;
  core::RicdFramework ricd(options);
  auto result = ricd.Run(scenario.table);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->feedback_rounds_used, 2u);
}

TEST(FrameworkEdgeTest, DerivedTHotRecordedInEffectiveParams) {
  auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, 42).value();
  core::FrameworkOptions options;
  options.params.t_hot = 0;  // derive
  core::RicdFramework ricd(options);
  auto result = ricd.Run(scenario.table);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->effective_params.t_hot, 0u);
}

/// A detector that always fails, for harness error propagation.
class FailingDetector : public baselines::Detector {
 public:
  std::string name() const override { return "Failing"; }
  Result<baselines::DetectionResult> Detect(
      const graph::BipartiteGraph&) override {
    return Status::Internal("synthetic failure");
  }
};

TEST(ExperimentHarnessTest, DetectorFailurePropagates) {
  table::ClickTable t;
  t.Append(1, 1, 1);
  const auto g = graph::GraphBuilder::FromTable(t).value();
  FailingDetector detector;
  auto row = eval::RunExperiment(detector, g, gen::LabelSet{});
  ASSERT_FALSE(row.ok());
  EXPECT_EQ(row.status().code(), StatusCode::kInternal);
}

TEST(FrameworkEdgeTest, MaxGroupUsersCapAppliesEndToEnd) {
  auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, 42).value();
  core::FrameworkOptions options;
  options.params.k1 = 8;
  options.params.k2 = 8;
  options.params.t_hot = 800;
  options.params.max_group_users = 2;  // everything is "group buying"
  core::RicdFramework ricd(options);
  auto result = ricd.Run(scenario.table);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->detection.groups.empty());
}

TEST(RankedPrecisionTest, TopKPrecisionPerSide) {
  core::RankedOutput ranked;
  ranked.users = {{0, 1, 5.0}, {1, 2, 4.0}, {2, 3, 3.0}, {3, 4, 2.0}};
  ranked.items = {{0, 10, 5.0}, {1, 11, 4.0}};
  gen::LabelSet labels;
  labels.abnormal_users = {1, 3};  // ranks 1 and 3
  labels.abnormal_items = {11};    // rank 2

  const auto pk = eval::RankedPrecision(ranked, labels, {1, 2, 4, 100});
  ASSERT_EQ(pk.size(), 4u);
  EXPECT_DOUBLE_EQ(pk[0].user_precision, 1.0);   // top-1 user is abnormal
  EXPECT_DOUBLE_EQ(pk[0].item_precision, 0.0);   // top-1 item is not
  EXPECT_DOUBLE_EQ(pk[1].user_precision, 0.5);
  EXPECT_DOUBLE_EQ(pk[1].item_precision, 0.5);
  EXPECT_DOUBLE_EQ(pk[2].user_precision, 0.5);   // 2 of 4
  // k beyond the list scores the available prefix.
  EXPECT_DOUBLE_EQ(pk[3].user_precision, 0.5);
  EXPECT_DOUBLE_EQ(pk[3].item_precision, 0.5);
}

TEST(RankedPrecisionTest, EmptyOutputScoresZero) {
  const auto pk = eval::RankedPrecision(core::RankedOutput{}, gen::LabelSet{},
                                        {5});
  ASSERT_EQ(pk.size(), 1u);
  EXPECT_DOUBLE_EQ(pk[0].user_precision, 0.0);
  EXPECT_DOUBLE_EQ(pk[0].item_precision, 0.0);
}

TEST(RankedPrecisionTest, RicdRankingIsFrontLoaded) {
  // On a real scenario, P@10 of the risk ranking should be at least the
  // set-level precision: the riskiest rows are the surest.
  auto scenario = gen::MakeScenario(gen::ScenarioScale::kTiny, 42).value();
  core::FrameworkOptions options;
  options.params.k1 = 8;
  options.params.k2 = 8;
  options.params.t_hot = 800;
  core::RicdFramework ricd(options);
  auto result = ricd.Run(scenario.table);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->ranked.users.empty());

  const auto pk = eval::RankedPrecision(result->ranked, scenario.labels, {10});
  EXPECT_GE(pk[0].user_precision, 0.8);
}

}  // namespace
}  // namespace ricd
