#include "obs/metric_names.h"
#include "ricd/framework.h"

#include <algorithm>
#include <cmath>

#include "check/validate.h"
#include "common/logging.h"
#include "graph/hot_items.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ricd::core {

std::string RicdFramework::name() const {
  switch (options_.screening) {
    case ScreeningMode::kFull:
      return "RICD";
    case ScreeningMode::kUserCheckOnly:
      return "RICD-I";
    case ScreeningMode::kNone:
      return "RICD-UI";
  }
  return "RICD";
}

Result<baselines::DetectionResult> RicdFramework::DetectOnce(
    const graph::BipartiteGraph& graph, const RicdParams& params,
    ScreeningMode screening, ExtractionStats* extraction_stats,
    ScreeningStats* screening_stats) {
  RicdParams effective = params;
  if (effective.t_hot == 0) {
    effective.t_hot = graph::DeriveHotThreshold(graph, graph::kHotClickMass);
  }

  ExtensionBicliqueExtractor extractor(effective);
  RICD_ASSIGN_OR_RETURN(std::vector<graph::Group> groups,
                        extractor.Extract(graph, extraction_stats));

  GroupScreener screener(graph, effective,
                         graph::ComputeHotFlags(graph, effective.t_hot));
  screener.Screen(groups, screening, screening_stats);
  if (check::ValidationEnabled()) {
    // Screening only removes members, so the surviving groups no longer owe
    // the alpha condition — but they must still reference live vertices and
    // stay duplicate-free.
    RICD_RETURN_IF_ERROR(check::ValidatePipelineResult(graph, groups));
  }

  baselines::DetectionResult result;
  result.groups = std::move(groups);
  return result;
}

Result<baselines::DetectionResult> RicdFramework::Detect(
    const graph::BipartiteGraph& graph) {
  return DetectOnce(graph, options_.params, options_.screening,
                    /*extraction_stats=*/nullptr, /*screening_stats=*/nullptr);
}

Result<FrameworkResult> RicdFramework::RunOnGraph(
    const graph::BipartiteGraph& graph) const {
  RICD_TRACE_SPAN("ricd.framework.run");
  static auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* feedback_rounds =
      registry.GetCounter(obs::metric_names::kRicdFeedbackRoundsTotal);
  static obs::Gauge* round_groups =
      registry.GetGauge(obs::metric_names::kRicdFeedbackLastGroupsSurvived);
  static obs::Gauge* round_nodes =
      registry.GetGauge(obs::metric_names::kRicdFeedbackLastNodesFlagged);

  FrameworkResult result;
  RicdParams params = options_.params;

  if (check::ValidationEnabled()) {
    // One O(E) structural audit per run; feedback rounds reuse the graph.
    RICD_RETURN_IF_ERROR(check::ValidateBipartiteGraph(graph));
  }

  for (uint32_t round = 0;; ++round) {
    result.extraction_stats = {};
    result.screening_stats = {};
    RICD_ASSIGN_OR_RETURN(
        result.detection,
        DetectOnce(graph, params, options_.screening, &result.extraction_stats,
                   &result.screening_stats));
    result.feedback_rounds_used = round;

    const size_t output_nodes = result.detection.NumFlagged();
    round_groups->Set(static_cast<double>(result.detection.groups.size()));
    round_nodes->Set(static_cast<double>(output_nodes));
    if (options_.expectation == 0 || output_nodes >= options_.expectation ||
        round >= options_.max_feedback_rounds) {
      break;
    }

    // Feedback strategy (Fig. 7): relax the interpretable parameters and
    // re-run to raise recall toward the end-user expectation T.
    const uint32_t relaxed_t_click = std::max<uint32_t>(
        2, static_cast<uint32_t>(std::floor(
               options_.t_click_decay * static_cast<double>(params.t_click))));
    const double relaxed_alpha =
        std::max(0.5, params.alpha - options_.alpha_step);
    if (relaxed_t_click == params.t_click && relaxed_alpha == params.alpha) {
      break;  // Nothing left to relax.
    }
    RICD_LOG(INFO) << "feedback round " << round + 1 << ": output "
                   << output_nodes << " < expectation " << options_.expectation
                   << "; relaxing T_click " << params.t_click << " -> "
                   << relaxed_t_click << ", alpha " << params.alpha << " -> "
                   << relaxed_alpha;
    params.t_click = relaxed_t_click;
    params.alpha = relaxed_alpha;
    feedback_rounds->Add(1);
  }

  result.effective_params = params;
  if (result.effective_params.t_hot == 0) {
    result.effective_params.t_hot =
        graph::DeriveHotThreshold(graph, graph::kHotClickMass);
  }
  result.ranked = RankByRisk(graph, result.detection.groups);
  if (check::ValidationEnabled()) {
    RICD_RETURN_IF_ERROR(check::ValidatePipelineResult(
        graph, result.detection.groups, &result.ranked));
  }
  return result;
}

Result<FrameworkResult> RicdFramework::Run(const table::ClickTable& table) const {
  RICD_ASSIGN_OR_RETURN(graph::BipartiteGraph graph,
                        GenerateGraph(table, options_.seeds));
  return RunOnGraph(graph);
}

}  // namespace ricd::core
