#ifndef RICD_EVAL_EXPERIMENT_H_
#define RICD_EVAL_EXPERIMENT_H_

#include <ostream>
#include <string>
#include <vector>

#include "baselines/detector.h"
#include "common/result.h"
#include "eval/metrics.h"
#include "gen/label_set.h"
#include "graph/bipartite_graph.h"

namespace ricd::eval {

/// One row of a comparison table: a method, its quality, and its elapsed
/// wall time (the paper's four metrics).
struct ExperimentRow {
  std::string method;
  Metrics metrics;
  double elapsed_seconds = 0.0;
};

/// Times one detector over `graph` and scores it against `labels`.
Result<ExperimentRow> RunExperiment(baselines::Detector& detector,
                                    const graph::BipartiteGraph& graph,
                                    const gen::LabelSet& labels);

/// Prints rows as a fixed-width table (method, precision, recall, F1,
/// elapsed seconds, output size).
void PrintRows(std::ostream& os, const std::vector<ExperimentRow>& rows);

}  // namespace ricd::eval

#endif  // RICD_EVAL_EXPERIMENT_H_
