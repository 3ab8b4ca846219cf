#include "detect.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "engine/worker_engine.h"
#include "graph/connected_components.h"
#include "graph/hot_items.h"
#include "graph/mutable_view.h"
#include "obs/metric_names.h"
#include "ricd/extension_biclique.h"
#include "ricd/graph_generator.h"
#include "ricd/identification.h"
#include "ricd/screening.h"

namespace ricd::perfbench {
namespace {

constexpr int kTracedPairs = 3;

bool SameGroups(const std::vector<graph::Group>& a,
                const std::vector<graph::Group>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].users != b[i].users || a[i].items != b[i].items) return false;
  }
  return true;
}

bool SameRanking(const core::RankedOutput& a, const core::RankedOutput& b) {
  if (a.users.size() != b.users.size() || a.items.size() != b.items.size()) {
    return false;
  }
  for (size_t i = 0; i < a.users.size(); ++i) {
    if (a.users[i].user != b.users[i].user ||
        a.users[i].external_id != b.users[i].external_id ||
        a.users[i].risk != b.users[i].risk) {
      return false;
    }
  }
  for (size_t i = 0; i < a.items.size(); ++i) {
    if (a.items[i].item != b.items[i].item ||
        a.items[i].external_id != b.items[i].external_id ||
        a.items[i].risk != b.items[i].risk) {
      return false;
    }
  }
  return true;
}

Status SameOutput(const core::FrameworkResult& want,
                  const std::vector<graph::Group>& groups,
                  const core::RankedOutput& ranked) {
  if (!SameGroups(want.detection.groups, groups)) {
    return Status::Internal("suspicious groups differ");
  }
  if (!SameRanking(want.ranked, ranked)) {
    return Status::Internal("risk ranking differs");
  }
  return Status::Ok();
}

/// What the traced decomposition produced, plus its work counts.
struct Decomposition {
  std::vector<graph::Group> extracted;  // before screening
  std::vector<graph::Group> screened;
  core::RankedOutput ranked;
  graph::BipartiteGraph graph;
  core::RicdParams params;  // effective (t_hot resolved)
  uint32_t sweeps = 0;
  uint32_t survivor_users = 0;
  uint32_t survivor_items = 0;
  uint64_t survivor_edges = 0;
};

/// Replays RicdFramework::Run (single feedback round, as configured) from
/// public calls, one span per layer call.
Result<Decomposition> Decompose(const table::ClickTable& table,
                                const core::RicdParams& params,
                                Tracer* tracer) {
  Decomposition d;
  {
    Tracer::Span span(tracer, "ricd.generate_graph");
    RICD_ASSIGN_OR_RETURN(d.graph, core::GenerateGraph(table));
  }
  d.params = params;
  if (d.params.t_hot == 0) {
    Tracer::Span span(tracer, "graph.hot_threshold");
    d.params.t_hot = graph::DeriveHotThreshold(d.graph, 0.8);
  }
  const core::ExtensionBicliqueExtractor extractor(d.params);
  {
    Tracer::Span extract(tracer, "ricd.extraction");
    std::vector<graph::Group> components;
    {
      Tracer::Span span(tracer, "graph.mutable_view");
      graph::MutableView view(d.graph);
      span.End();
      {
        Tracer::Span core_span(tracer, "ricd.core_pruning");
        extractor.CorePruning(view, nullptr);
      }
      d.survivor_users = view.NumActive(graph::Side::kUser);
      d.survivor_items = view.NumActive(graph::Side::kItem);
      for (graph::VertexId u = 0; u < d.graph.num_users(); ++u) {
        if (view.IsActive(graph::Side::kUser, u)) {
          d.survivor_edges += view.ActiveDegree(graph::Side::kUser, u);
        }
      }
      for (uint32_t sweep = 0; sweep < d.params.square_pruning_sweeps;
           ++sweep) {
        const uint32_t before = view.NumActive(graph::Side::kUser) +
                                view.NumActive(graph::Side::kItem);
        {
          Tracer::Span span(tracer, "ricd.square_pruning");
          extractor.SquarePruning(view, /*ordered=*/true, nullptr);
        }
        {
          Tracer::Span span(tracer, "ricd.core_pruning");
          extractor.CorePruning(view, nullptr);
        }
        ++d.sweeps;
        const uint32_t after = view.NumActive(graph::Side::kUser) +
                               view.NumActive(graph::Side::kItem);
        if (after == before) break;
      }
      Tracer::Span span_cc(tracer, "graph.components");
      components = graph::ActiveConnectedComponents(view);
    }
    Tracer::Span span(tracer, "ricd.group_filter");
    for (graph::Group& c : components) {
      if (c.users.size() < d.params.k1 || c.items.size() < d.params.k2) {
        continue;
      }
      if (d.params.max_group_users > 0 &&
          c.users.size() > d.params.max_group_users) {
        continue;
      }
      d.extracted.push_back(std::move(c));
    }
  }
  std::vector<uint8_t> hot;
  {
    Tracer::Span span(tracer, "graph.hot_threshold");
    hot = graph::ComputeHotFlags(d.graph, d.params.t_hot);
  }
  {
    Tracer::Span span(tracer, "ricd.screening");
    const core::GroupScreener screener(d.graph, d.params, std::move(hot));
    d.screened = d.extracted;
    screener.Screen(d.screened, core::ScreeningMode::kFull);
  }
  {
    Tracer::Span span(tracer, "ricd.identification");
    d.ranked = core::RankByRisk(d.graph, d.screened);
  }
  return d;
}

}  // namespace

Result<std::vector<double>> TimeRuns(const core::RicdFramework& framework,
                                     const table::ClickTable& table,
                                     size_t min_runs, size_t max_runs,
                                     double budget_s,
                                     core::FrameworkResult* first,
                                     Report* report) {
  std::vector<double> seconds;
  const Clock::time_point phase = Clock::now();
  while (seconds.size() < min_runs ||
         (seconds.size() < max_runs &&
          SecondsBetween(phase, Clock::now()) + Median(seconds) <= budget_s)) {
    const Clock::time_point start = Clock::now();
    Result<core::FrameworkResult> run = framework.Run(table);
    seconds.push_back(SecondsBetween(start, Clock::now()));
    RICD_RETURN_IF_ERROR(run.status());
    if (seconds.size() == 1) {
      *first = std::move(run).value();
      report->Op(true);
    } else {
      report->Check(SameOutput(*first, run->detection.groups, run->ranked),
                    "repeat output equals the first repeat");
    }
  }
  return seconds;
}

Result<double> TraceRuns(const core::RicdFramework& framework,
                         const table::ClickTable& table, Tracer* tracer,
                         Report* report) {
  std::vector<double> untraced, traced, coverage;
  const std::vector<std::string> layers = {
      "ricd.generate_graph", "graph.hot_threshold", "graph.components",
      "ricd.core_pruning",   "ricd.square_pruning", "ricd.screening",
      "ricd.identification"};
  std::vector<std::vector<double>> layer_times(layers.size());
  const std::vector<std::string> leaf_spans = {
      "ricd.generate_graph", "graph.hot_threshold", "graph.mutable_view",
      "ricd.core_pruning",   "ricd.square_pruning", "graph.components",
      "ricd.group_filter",   "ricd.screening",      "ricd.identification"};
  Decomposition last;
  uint64_t rounds = 0, rechecks = 0;
  for (int pair = 0; pair < kTracedPairs; ++pair) {
    const Clock::time_point start = Clock::now();
    Result<core::FrameworkResult> run = framework.Run(table);
    untraced.push_back(SecondsBetween(start, Clock::now()));
    RICD_RETURN_IF_ERROR(run.status());

    const double since = tracer->Now();
    const uint64_t rounds0 =
        CounterValue(obs::metric_names::kRicdExtractionRounds);
    const uint64_t rechecks0 =
        CounterValue(obs::metric_names::kRicdExtractionRoundRechecks);
    Tracer::Span root(tracer, "detect");
    Result<Decomposition> d =
        Decompose(table, framework.options().params, tracer);
    const double total = root.End();
    RICD_RETURN_IF_ERROR(d.status());
    rounds = CounterValue(obs::metric_names::kRicdExtractionRounds) - rounds0;
    rechecks = CounterValue(obs::metric_names::kRicdExtractionRoundRechecks) -
               rechecks0;
    traced.push_back(total);
    report->Check(SameOutput(*run, d->screened, d->ranked),
                  "traced decomposition reproduces RicdFramework::Run");
    double covered = 0;
    for (const std::string& name : leaf_spans) {
      covered += tracer->Total(name, since);
    }
    coverage.push_back(covered / total);
    for (size_t i = 0; i < layers.size(); ++i) {
      layer_times[i].push_back(tracer->Total(layers[i], since));
    }
    last = std::move(d).value();
  }
  const double min_coverage =
      *std::min_element(coverage.begin(), coverage.end());
  report->Check(min_coverage >= 0.95
                    ? Status::Ok()
                    : Status::Internal("layer spans cover " +
                                       std::to_string(min_coverage) +
                                       " of the traced Run"),
                "layer spans cover >= 95% of the traced Run");

  // The extraction engine alone, on one worker and on the pinned width.
  const engine::WorkerEngine one_worker(1);
  double extract_1w = 0, extract_nw = 0;
  uint64_t tasks = 0;
  {
    const core::ExtensionBicliqueExtractor extractor(last.params, &one_worker);
    Tracer::Span span(tracer, "engine.extract_1w");
    Result<std::vector<graph::Group>> groups = extractor.Extract(last.graph);
    extract_1w = span.End();
    RICD_RETURN_IF_ERROR(groups.status());
    report->Check(SameGroups(*groups, last.extracted)
                      ? Status::Ok()
                      : Status::Internal("1-worker groups differ"),
                  "1-worker extraction equals the decomposition");
  }
  {
    const core::ExtensionBicliqueExtractor extractor(last.params);
    const uint64_t tasks0 =
        CounterValue(obs::metric_names::kEnginePoolTasksTotal);
    Tracer::Span span(tracer, "engine.extract_nw");
    Result<std::vector<graph::Group>> groups = extractor.Extract(last.graph);
    extract_nw = span.End();
    tasks = CounterValue(obs::metric_names::kEnginePoolTasksTotal) - tasks0;
    RICD_RETURN_IF_ERROR(groups.status());
    report->Check(SameGroups(*groups, last.extracted)
                      ? Status::Ok()
                      : Status::Internal("n-worker groups differ"),
                  "n-worker extraction equals the decomposition");
  }

  for (size_t i = 0; i < layers.size(); ++i) {
    report->Add(layers[i] + "_s", "s", Median(layer_times[i]));
  }
  report->Add("ricd.square_sweeps", "count", last.sweeps);
  report->Add("ricd.core_survivor_users", "count", last.survivor_users);
  report->Add("ricd.core_survivor_items", "count", last.survivor_items);
  report->Add("ricd.core_survivor_edges", "count",
              static_cast<double>(last.survivor_edges));
  report->Add("ricd.extraction.rounds", "count", static_cast<double>(rounds));
  report->Add("ricd.extraction.round_rechecks", "count",
              static_cast<double>(rechecks));
  report->Add("engine.extract_1w_s", "s", extract_1w);
  report->Add("engine.extract_nw_s", "s", extract_nw);
  report->Add("engine.pool.tasks_total", "count", static_cast<double>(tasks));
  char line[112];
  std::snprintf(line, sizeof(line),
                "trace: layer spans cover %.4f of detect over %zu rows",
                min_coverage, table.num_rows());
  report->Note(line);
  return Median(traced) / Median(untraced) - 1.0;
}

}  // namespace ricd::perfbench
