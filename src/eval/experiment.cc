#include "eval/experiment.h"

#include "common/string_util.h"
#include "common/timer.h"

namespace ricd::eval {

Result<ExperimentRow> RunExperiment(baselines::Detector& detector,
                                    const graph::BipartiteGraph& graph,
                                    const gen::LabelSet& labels) {
  ExperimentRow row;
  row.method = detector.name();
  WallTimer timer;
  RICD_ASSIGN_OR_RETURN(baselines::DetectionResult result,
                        detector.Detect(graph));
  row.elapsed_seconds = timer.ElapsedSeconds();
  row.metrics = Evaluate(graph, result, labels);
  return row;
}

void PrintRows(std::ostream& os, const std::vector<ExperimentRow>& rows) {
  os << StringPrintf("%-16s %10s %10s %10s %12s %10s\n", "method", "precision",
                     "recall", "f1", "elapsed(s)", "output");
  os << std::string(74, '-') << "\n";
  for (const auto& row : rows) {
    os << StringPrintf("%-16s %10.3f %10.3f %10.3f %12.3f %10llu\n",
                       row.method.c_str(), row.metrics.precision,
                       row.metrics.recall, row.metrics.f1, row.elapsed_seconds,
                       static_cast<unsigned long long>(row.metrics.output_nodes));
  }
}

}  // namespace ricd::eval
