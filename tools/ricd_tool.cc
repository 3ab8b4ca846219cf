// ricd_tool — command-line front end for the RICD library.
//
//   ricd_tool generate --scale=small --seed=42 --out=clicks.csv|clicks.bin
//                      [--labels=labels.csv]
//                      [--scenario=<name|spec.json>]
//   ricd_tool stats    --in=clicks.csv
//   ricd_tool detect   --in=clicks.csv [--k1=10 --k2=10 --alpha=1.0
//                      --t-hot=0 --t-click=12 --screening=full|user|none
//                      --seed-users=1,2,3 --seed-items=7,8
//                      --expectation=0 --top=50]
//                      [--out-users=users.csv --out-items=items.csv]
//   ricd_tool i2i      --in=clicks.csv --item=ID [--top=10]
//   ricd_tool compare  --in=clicks.csv --labels=labels.csv
//                      [--k1= --k2= --alpha= --t-hot= --t-click=]
//   ricd_tool scenario [list | show <name> [--out=spec.json]]
//   ricd_tool redteam  [--scenario=ric_burst] [--scale=] [--seed=]
//                      [--families=covisit_poison,uplift_camouflage]
//                      [--k1= --k2= --alpha= --t-hot= --t-click=]
//   ricd_tool selftest [--scale=tiny --seed=42] [--scenario=<name|file>]
//   ricd_tool validate --in=clicks.csv|clicks.bin | --snapshot=graph.snap
//   ricd_tool snapshot save --in=clicks.csv --out=graph.snap
//                      [--labels=labels.csv]
//   ricd_tool snapshot info --in=graph.snap
//   ricd_tool serve    --in=clicks.csv [--port=0] [--handlers=4]
//                      [--batch=2048 --duration=0]
//                      [--k1= --k2= --alpha= --t-hot= --t-click=]
//   ricd_tool client   --port=N --op=ping|user|item|pair|stats|ingest
//                      [--user=ID] [--item=ID] [--in=clicks.csv]
//   ricd_tool monitor  --port=N [--watch] [--interval=2] [--count=0]
//
// `serve` bootstraps the online detection service on a click table and
// answers QUERY/INGEST/STATS requests over the length-prefixed TCP
// protocol of src/serve until --duration seconds elapse (0 = until stdin
// reaches EOF). --port=0 binds an ephemeral port (printed on stdout).
// --batch is the number of pending records that triggers a refresh.
// Environment knob: RICD_WINDOW_CLICKS (count retention of the rows every
// refresh re-detects over; 0 = unbounded). INGEST frames carry no event
// time, so `serve` has no time retention.
// `client` speaks one request to a running server and prints the reply.
// `monitor` pulls the METRICS exposition (Prometheus-style text plus the
// most recent flight-recorder events) from a running server; --watch
// re-polls every --interval seconds until interrupted, or --count polls.
//
// `validate` loads a saved click table, rebuilds the bipartite graph and
// runs the full structural audit (src/check); it exits non-zero if any
// invariant fails. Every other command accepts `--validate` to force the
// pipeline's inline validators on (equivalent to RICD_VALIDATE=1).
//
// `snapshot save` freezes a built graph (and optionally its ground-truth
// labels) into the versioned binary container of src/snapshot;
// `detect`, `i2i`, `compare` and `validate` then accept
// `--snapshot=graph.snap` in place of `--in` to mmap that container
// zero-copy instead of re-parsing and rebuilding.
//
// Every command additionally accepts --metrics_json=<path> (alias
// --metrics-json): after the command finishes, the process-wide metrics
// snapshot and span tree are printed as a summary table and written to
// <path> as one JSON object (see obs/report.h for the schema). Invoking
// the tool with only flags (`ricd_tool --metrics_json=out.json`) runs
// `selftest`, which generates a small in-memory workload and runs the
// full detection pipeline so every stage span and engine gauge is
// populated.
//
// `scenario list` prints every registered workload preset; `scenario show`
// prints one preset as its canonical JSON (the same document `--scenario`
// accepts from a file). `generate` and `selftest` accept
// `--scenario=<name|file>` to build any preset instead of the default
// scale-calibrated paper campaign; `--scale`/`--seed` still override the
// spec's own values. `redteam` runs the adversarial robustness sweep
// (src/eval/redteam): every attack family x the pinned knob grid, scored
// by RICD/FRAUDAR/CopyCatch; --metrics_json=<path> writes the per-point
// precision/recall/f1 gauges (bench.adversarial.*) into its report; the
// committed BENCH_adversarial.json holds bench_adversarial's sweep instead.
//
// All click CSVs are "user,item,clicks" rows (a header is optional); label
// files are "kind,id" rows as written by `generate --labels`.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/common_neighbors.h"
#include "check/validate.h"
#include "baselines/copycatch.h"
#include "baselines/fraudar.h"
#include "baselines/louvain.h"
#include "baselines/lpa.h"
#include "baselines/naive.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "eval/experiment.h"
#include "eval/redteam.h"
#include "gen/label_io.h"
#include "gen/scenario.h"
#include "graph/graph_builder.h"
#include "graph/hot_items.h"
#include "i2i/i2i_score.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "ricd/framework.h"
#include "ricd/ui_adapter.h"
#include "scenario/materialize.h"
#include "scenario/registry.h"
#include "scenario/spec.h"
#include "serve/detection_service.h"
#include "serve/server.h"
#include "snapshot/snapshot.h"
#include "table/table_io.h"
#include "table/table_stats.h"

namespace ricd::tool {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: ricd_tool "
      "<generate|stats|detect|i2i|compare|scenario|redteam|selftest"
      "|validate|snapshot|serve|client|monitor> [--flags]\n"
      "  generate  synthesize a Taobao-shaped workload with planted attacks\n"
      "  stats     print Table I/II-style statistics of a click CSV\n"
      "  detect    run the RICD framework and emit ranked suspects\n"
      "  i2i       top related items of an item (the manipulated ranking)\n"
      "  compare   score RICD and all baselines against a label file\n"
      "  scenario  list workload presets or show one as canonical JSON\n"
      "  redteam   sweep attack families x knobs against the detector panel\n"
      "  selftest  generate a small workload and run the full pipeline once\n"
      "  validate  audit a saved click table's graph invariants (src/check)\n"
      "  snapshot  save|load|info for binary graph snapshots (src/snapshot)\n"
      "  serve     run the online detection service as a TCP server\n"
      "  client    send one query/ingest/stats request to a running server\n"
      "  monitor   print a server's live metrics exposition (--watch polls)\n"
      "detect/i2i/compare/validate accept --snapshot=<graph.snap> instead of\n"
      "--in to mmap a saved graph zero-copy instead of rebuilding it;\n"
      "every command accepts --metrics_json=<path> to dump the metrics/span\n"
      "report (ricd_tool --metrics_json=out.json alone implies selftest)\n"
      "and --validate to run the pipeline's structural validators inline\n");
  return 2;
}

/// Workload descriptors of the command that ran, for the metrics report.
obs::WorkloadScale g_workload;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Rejects mistyped flags after all getters ran.
int RejectUnknown(const FlagParser& flags) {
  const auto unknown = flags.UnknownFlags();
  if (unknown.empty()) return 0;
  for (const auto& name : unknown) {
    std::fprintf(stderr, "error: unknown flag --%s\n", name.c_str());
  }
  return 2;
}

Result<gen::ScenarioScale> ParseScale(const std::string& name) {
  gen::ScenarioScale scale = gen::ScenarioScale::kTiny;
  if (!gen::ParseScenarioScale(name, &scale)) {
    return Status::InvalidArgument("unknown --scale '" + name +
                                   "' (tiny|small|medium|large|xlarge)");
  }
  return scale;
}

/// Resolves the workload spec for generate/selftest: --scenario=<name|file>
/// picks a registry preset or a JSON spec file (default: the legacy
/// `baseline` paper campaign); --scale/--seed, when passed explicitly,
/// override the spec's own values.
Result<scenario::ScenarioSpec> ResolveSpec(const FlagParser& flags,
                                           const std::string& default_scale,
                                           int64_t default_seed) {
  RICD_ASSIGN_OR_RETURN(const std::string scenario_arg,
                        flags.GetString("scenario", ""));
  RICD_ASSIGN_OR_RETURN(const std::string scale_name,
                        flags.GetString("scale", default_scale));
  RICD_ASSIGN_OR_RETURN(const int64_t seed, flags.GetInt("seed", default_seed));
  RICD_ASSIGN_OR_RETURN(const gen::ScenarioScale scale, ParseScale(scale_name));
  if (scenario_arg.empty()) {
    return scenario::BaselineSpec(scale, static_cast<uint64_t>(seed));
  }
  RICD_ASSIGN_OR_RETURN(scenario::ScenarioSpec spec,
                        scenario::LoadScenario(scenario_arg));
  if (flags.Has("scale")) spec.scale = scale;
  if (flags.Has("seed")) spec.seed = static_cast<uint64_t>(seed);
  return spec;
}

Result<core::ScreeningMode> ParseScreening(const std::string& name) {
  if (name == "full") return core::ScreeningMode::kFull;
  if (name == "user") return core::ScreeningMode::kUserCheckOnly;
  if (name == "none") return core::ScreeningMode::kNone;
  return Status::InvalidArgument("unknown --screening '" + name +
                                 "' (full|user|none)");
}

Result<core::RicdParams> ParamsFromFlags(const FlagParser& flags) {
  core::RicdParams params;
  RICD_ASSIGN_OR_RETURN(const int64_t k1, flags.GetInt("k1", params.k1));
  RICD_ASSIGN_OR_RETURN(const int64_t k2, flags.GetInt("k2", params.k2));
  RICD_ASSIGN_OR_RETURN(params.alpha, flags.GetDouble("alpha", params.alpha));
  RICD_ASSIGN_OR_RETURN(const int64_t t_hot, flags.GetInt("t-hot", 0));
  RICD_ASSIGN_OR_RETURN(const int64_t t_click,
                        flags.GetInt("t-click", params.t_click));
  if (k1 <= 0 || k2 <= 0 || t_hot < 0 || t_click <= 0) {
    return Status::InvalidArgument("k1/k2/t-click must be > 0, t-hot >= 0");
  }
  params.k1 = static_cast<uint32_t>(k1);
  params.k2 = static_cast<uint32_t>(k2);
  params.t_hot = static_cast<uint64_t>(t_hot);
  params.t_click = static_cast<uint32_t>(t_click);
  return params;
}

/// Click files named `*.bin` are in the binary table format of
/// table/table_io.h; every other name is a CSV. Readers and writers both
/// decide through this test.
bool IsBinaryClickFile(const std::string& path) {
  return path.size() > 4 && path.ends_with(".bin");
}

Result<table::ClickTable> LoadClicks(const FlagParser& flags) {
  RICD_ASSIGN_OR_RETURN(const std::string in, flags.GetString("in", ""));
  if (in.empty()) return Status::InvalidArgument("--in=<clicks file> required");
  if (IsBinaryClickFile(in)) return table::ReadBinary(in);
  return table::ReadCsv(in);
}

/// Loads the graph for commands that accept either `--in=<clicks>` (parse
/// and rebuild) or `--snapshot=<graph.snap>` (mmap zero-copy).
Result<graph::BipartiteGraph> LoadGraphFromFlags(const FlagParser& flags) {
  RICD_ASSIGN_OR_RETURN(const std::string snap,
                        flags.GetString("snapshot", ""));
  if (!snap.empty()) {
    RICD_ASSIGN_OR_RETURN(auto view, snapshot::GraphView::Map(snap));
    return std::move(view).TakeGraph();
  }
  RICD_ASSIGN_OR_RETURN(const auto clicks, LoadClicks(flags));
  return graph::GraphBuilder::FromTable(clicks);
}

int RunGenerate(const FlagParser& flags) {
  const auto spec = ResolveSpec(flags, "small", 42);
  const auto out = flags.GetString("out", "clicks.csv");
  const auto labels_path = flags.GetString("labels", "");
  if (!spec.ok()) return Fail(spec.status());
  if (!out.ok() || !labels_path.ok()) return 2;
  if (const int rc = RejectUnknown(flags)) return rc;

  std::printf("scenario: %s\n", scenario::ScenarioSpecToJson(*spec).c_str());
  // Fully qualified: the result variable shadows namespace `scenario` from
  // its own initializer onward.
  auto scenario = ::ricd::scenario::Materialize(*spec);
  if (!scenario.ok()) return Fail(scenario.status());

  const Status write = IsBinaryClickFile(*out)
                           ? table::WriteBinary(scenario->table, *out)
                           : table::WriteCsv(scenario->table, *out);
  if (!write.ok()) return Fail(write);
  std::printf("wrote %zu click rows to %s\n", scenario->table.num_rows(),
              out->c_str());

  if (!labels_path->empty()) {
    const Status ls = gen::WriteLabels(scenario->labels, *labels_path);
    if (!ls.ok()) return Fail(ls);
    std::printf("wrote %zu labels (%zu users, %zu items) to %s\n",
                scenario->labels.size(), scenario->labels.abnormal_users.size(),
                scenario->labels.abnormal_items.size(), labels_path->c_str());
  }
  std::printf("planted %zu attack groups; %zu organic communities\n",
              scenario->groups.size(), scenario->organic_clubs.size());
  return 0;
}

int RunStats(const FlagParser& flags) {
  auto clicks = LoadClicks(flags);
  if (!clicks.ok()) return Fail(clicks.status());
  if (const int rc = RejectUnknown(flags)) return rc;

  const auto click_graph = graph::GraphBuilder::FromTable(*clicks);
  if (!click_graph.ok()) return Fail(click_graph.status());
  const auto stats = table::ComputeTableStats(*clicks);
  const uint64_t t_hot =
      graph::DeriveHotThreshold(*click_graph, graph::kHotClickMass);
  std::printf("rows:        %zu\n", clicks->num_rows());
  std::printf("users:       %llu\n",
              static_cast<unsigned long long>(stats.num_users));
  std::printf("items:       %llu\n",
              static_cast<unsigned long long>(stats.num_items));
  std::printf("edges:       %llu\n",
              static_cast<unsigned long long>(stats.num_edges));
  std::printf("clicks:      %llu\n",
              static_cast<unsigned long long>(stats.total_clicks));
  std::printf("user side:   avg_clk %.2f  avg_cnt %.2f  stdev %.2f\n",
              stats.user_side.avg_clicks, stats.user_side.avg_degree,
              stats.user_side.stdev_clicks);
  std::printf("item side:   avg_clk %.2f  avg_cnt %.2f  stdev %.2f\n",
              stats.item_side.avg_clicks, stats.item_side.avg_degree,
              stats.item_side.stdev_clicks);
  std::printf("T_hot (80%% click-mass rule): %llu\n",
              static_cast<unsigned long long>(t_hot));
  return 0;
}

int RunDetect(const FlagParser& flags) {
  const auto snapshot_path = flags.GetString("snapshot", "");
  const auto in_path = flags.GetString("in", "");  // consumed in the lambda
  if (!snapshot_path.ok() || !in_path.ok()) return 2;
  auto params = ParamsFromFlags(flags);
  if (!params.ok()) return Fail(params.status());
  const auto screening_name = flags.GetString("screening", "full");
  const auto expectation = flags.GetInt("expectation", 0);
  const auto top = flags.GetInt("top", 50);
  const auto out_users = flags.GetString("out-users", "");
  const auto out_items = flags.GetString("out-items", "");
  const auto seed_users = flags.GetIntList("seed-users");
  const auto seed_items = flags.GetIntList("seed-items");
  if (!screening_name.ok()) return Fail(screening_name.status());
  if (!expectation.ok()) return Fail(expectation.status());
  if (!top.ok() || !out_users.ok() || !out_items.ok()) return 2;
  if (!seed_users.ok()) return Fail(seed_users.status());
  if (!seed_items.ok()) return Fail(seed_items.status());
  if (const int rc = RejectUnknown(flags)) return rc;

  auto screening = ParseScreening(*screening_name);
  if (!screening.ok()) return Fail(screening.status());

  core::FrameworkOptions options;
  options.params = *params;
  options.screening = *screening;
  options.expectation = static_cast<uint32_t>(*expectation);
  options.seeds.users.assign(seed_users->begin(), seed_users->end());
  options.seeds.items.assign(seed_items->begin(), seed_items->end());

  core::RicdFramework framework(options);
  auto result = [&]() -> Result<core::FrameworkResult> {
    if (!snapshot_path->empty()) {
      RICD_ASSIGN_OR_RETURN(const auto view,
                            snapshot::GraphView::Map(*snapshot_path));
      return framework.RunOnGraph(view.graph());
    }
    RICD_ASSIGN_OR_RETURN(const auto clicks, LoadClicks(flags));
    return framework.Run(clicks);
  }();
  if (!result.ok()) return Fail(result.status());

  std::printf("detected %zu suspicious group(s); flagged %zu users, %zu "
              "items\n",
              result->detection.groups.size(), result->ranked.users.size(),
              result->ranked.items.size());
  std::printf("effective parameters: k1=%u k2=%u alpha=%.2f T_hot=%llu "
              "T_click=%u (feedback rounds: %u)\n",
              result->effective_params.k1, result->effective_params.k2,
              result->effective_params.alpha,
              static_cast<unsigned long long>(result->effective_params.t_hot),
              result->effective_params.t_click, result->feedback_rounds_used);

  std::printf("\ntop suspicious users:\n");
  for (const auto& u : core::TopKUsers(result->ranked,
                                       static_cast<size_t>(*top))) {
    std::printf("  %lld\trisk %.1f\n", static_cast<long long>(u.external_id),
                u.risk);
  }
  std::printf("top suspicious items:\n");
  for (const auto& v : core::TopKItems(result->ranked,
                                       static_cast<size_t>(*top))) {
    std::printf("  %lld\trisk %.2f\n", static_cast<long long>(v.external_id),
                v.risk);
  }

  if (!out_users->empty()) {
    std::ofstream out(*out_users, std::ios::trunc);
    out << "user,risk\n";
    for (const auto& u : result->ranked.users) {
      out << u.external_id << ',' << u.risk << '\n';
    }
    std::printf("\nwrote %zu ranked users to %s\n", result->ranked.users.size(),
                out_users->c_str());
  }
  if (!out_items->empty()) {
    std::ofstream out(*out_items, std::ios::trunc);
    out << "item,risk\n";
    for (const auto& v : result->ranked.items) {
      out << v.external_id << ',' << v.risk << '\n';
    }
    std::printf("wrote %zu ranked items to %s\n", result->ranked.items.size(),
                out_items->c_str());
  }
  return 0;
}

int RunI2i(const FlagParser& flags) {
  auto graph = LoadGraphFromFlags(flags);
  if (!graph.ok()) return Fail(graph.status());
  const auto item = flags.GetInt("item", -1);
  const auto top = flags.GetInt("top", 10);
  if (!item.ok()) return Fail(item.status());
  if (!top.ok()) return 2;
  if (const int rc = RejectUnknown(flags)) return rc;
  if (*item < 0) return Fail(Status::InvalidArgument("--item=<id> required"));

  graph::VertexId anchor = 0;
  if (!graph->LookupItem(*item, &anchor)) {
    return Fail(Status::NotFound("item not present in the click table"));
  }

  i2i::I2iScorer scorer(*graph);
  const auto related = scorer.RelatedItems(anchor, static_cast<size_t>(*top));
  std::printf("item %lld: %u clickers, %llu total clicks\n",
              static_cast<long long>(*item),
              graph->Degree(graph::Side::kItem, anchor),
              static_cast<unsigned long long>(graph->ItemTotalClicks(anchor)));
  std::printf("top related items by I2I-score (Eq. 1):\n");
  for (const auto& r : related) {
    std::printf("  item %-12lld score %.5f\n",
                static_cast<long long>(graph->ExternalItemId(r.item)), r.score);
  }
  return 0;
}

int RunCompare(const FlagParser& flags) {
  const auto snapshot_path = flags.GetString("snapshot", "");
  const auto in_path = flags.GetString("in", "");  // consumed below
  const auto labels_path = flags.GetString("labels", "");
  auto params = ParamsFromFlags(flags);
  if (!snapshot_path.ok() || !in_path.ok() || !labels_path.ok()) return 2;
  if (!params.ok()) return Fail(params.status());

  // Graph from the snapshot (which may also carry the labels) or from a
  // click table; labels from --labels when given.
  graph::BipartiteGraph graph;
  gen::LabelSet labels;
  bool have_labels = false;
  if (!snapshot_path->empty()) {
    auto view = snapshot::GraphView::Map(*snapshot_path);
    if (!view.ok()) return Fail(view.status());
    if (labels_path->empty() && view->has_labels()) {
      labels = view->Labels();
      have_labels = true;
    }
    graph = std::move(*view).TakeGraph();
  } else {
    auto clicks = LoadClicks(flags);
    if (!clicks.ok()) return Fail(clicks.status());
    auto built = graph::GraphBuilder::FromTable(*clicks);
    if (!built.ok()) return Fail(built.status());
    graph = std::move(built).value();
  }
  if (const int rc = RejectUnknown(flags)) return rc;
  if (!have_labels) {
    if (labels_path->empty()) {
      return Fail(Status::InvalidArgument(
          "--labels=<label file> required (snapshot has no label sections)"));
    }
    auto read = gen::ReadLabels(*labels_path);
    if (!read.ok()) return Fail(read.status());
    labels = std::move(read).value();
  }

  std::vector<std::unique_ptr<baselines::Detector>> detectors;
  {
    core::FrameworkOptions options;
    options.params = *params;
    detectors.push_back(std::make_unique<core::RicdFramework>(options));
  }
  const auto screened = [&](std::unique_ptr<baselines::Detector> inner) {
    return std::make_unique<core::ScreenedDetector>(std::move(inner), *params);
  };
  detectors.push_back(screened(std::make_unique<baselines::Lpa>()));
  detectors.push_back(screened(std::make_unique<baselines::Fraudar>()));
  detectors.push_back(screened(std::make_unique<baselines::CommonNeighbors>()));
  detectors.push_back(screened(std::make_unique<baselines::NaiveAlgorithm>()));
  detectors.push_back(screened(std::make_unique<baselines::Louvain>()));
  detectors.push_back(screened(std::make_unique<baselines::CopyCatch>()));

  std::vector<eval::ExperimentRow> rows;
  for (auto& detector : detectors) {
    auto row = eval::RunExperiment(*detector, graph, labels);
    if (!row.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", detector->name().c_str(),
                   row.status().ToString().c_str());
      continue;
    }
    rows.push_back(std::move(row).value());
  }
  eval::PrintRows(std::cout, rows);
  return 0;
}

int RunSelftest(const FlagParser& flags) {
  const auto spec = ResolveSpec(flags, "tiny", 42);
  if (!spec.ok()) return Fail(spec.status());
  if (const int rc = RejectUnknown(flags)) return rc;

  auto scenario = ::ricd::scenario::Materialize(*spec);
  if (!scenario.ok()) return Fail(scenario.status());

  core::FrameworkOptions options;
  core::RicdFramework framework(options);
  auto result = framework.Run(scenario->table);
  if (!result.ok()) return Fail(result.status());

  auto graph = graph::GraphBuilder::FromTable(scenario->table);
  if (!graph.ok()) return Fail(graph.status());
  g_workload.scale = gen::ScenarioScaleName(spec->scale);
  g_workload.seed = spec->seed;
  g_workload.users = graph->num_users();
  g_workload.items = graph->num_items();
  g_workload.edges = graph->num_edges();
  g_workload.clicks = graph->total_clicks();

  std::printf("selftest: scenario=%s scale=%s seed=%llu — detected %zu "
              "group(s), flagged %zu users / %zu items (feedback rounds: %u)\n",
              spec->name.c_str(), gen::ScenarioScaleName(spec->scale),
              static_cast<unsigned long long>(spec->seed),
              result->detection.groups.size(), result->ranked.users.size(),
              result->ranked.items.size(), result->feedback_rounds_used);
  return 0;
}

/// The `scenario` command family: list | show <name|file> [--out=spec.json].
int RunScenario(const FlagParser& flags) {
  // The parser already skipped the command word, so pos[0] is the action.
  const auto& pos = flags.positional();
  const std::string action = pos.empty() ? "list" : pos[0];

  if (action == "list") {
    if (const int rc = RejectUnknown(flags)) return rc;
    std::printf("%-18s %-7s %-10s %-5s %s\n", "name", "scale", "arrival",
                "skew", "attacks");
    for (const auto& name : scenario::ScenarioNames()) {
      auto spec = scenario::FindScenario(name);
      if (!spec.ok()) return Fail(spec.status());
      std::string attacks;
      for (const auto& attack : spec->attacks) {
        if (!attacks.empty()) attacks += ",";
        attacks += attack.groups == 0 ? attack.family + "(calibrated)"
                                      : attack.family;
      }
      if (attacks.empty()) attacks = "-";
      std::printf("%-18s %-7s %-10s %-5g %s\n", name.c_str(),
                  gen::ScenarioScaleName(spec->scale),
                  scenario::ArrivalPatternName(spec->arrival), spec->skew,
                  attacks.c_str());
    }
    return 0;
  }

  if (action == "show") {
    const auto out = flags.GetString("out", "");
    if (!out.ok()) return 2;
    if (const int rc = RejectUnknown(flags)) return rc;
    if (pos.size() < 2) {
      return Fail(Status::InvalidArgument(
          "usage: ricd_tool scenario show <name|spec.json> [--out=spec.json]"));
    }
    auto spec = scenario::LoadScenario(pos[1]);
    if (!spec.ok()) return Fail(spec.status());
    const std::string json = scenario::ScenarioSpecToJson(*spec);
    if (out->empty()) {
      std::printf("%s\n", json.c_str());
      return 0;
    }
    std::ofstream file(*out, std::ios::trunc);
    file << json << '\n';
    if (!file) {
      return Fail(Status::Internal("cannot write spec to " + *out));
    }
    std::printf("wrote scenario '%s' to %s\n", spec->name.c_str(),
                out->c_str());
    return 0;
  }

  std::fprintf(stderr,
               "usage: ricd_tool scenario <list|show> [args]\n"
               "  list                    all registered presets\n"
               "  show <name|spec.json>   canonical JSON of one scenario "
               "[--out=spec.json]\n");
  return 2;
}

/// The `redteam` command: the adversarial robustness sweep of
/// src/eval/redteam against a base scenario (default: the pinned-floor
/// `ric_burst` preset).
int RunRedteamSweep(const FlagParser& flags) {
  auto params = ParamsFromFlags(flags);
  if (!params.ok()) return Fail(params.status());
  if (!flags.Has("t-hot")) {
    // The sweep's floors are pinned against the paper's T_hot = 1000, not
    // the derived 80/20 threshold (which at tiny scale marks the planted
    // targets themselves hot and screens them out).
    params->t_hot = core::RicdParams().t_hot;
  }
  const auto scenario_arg = flags.GetString("scenario", "ric_burst");
  const auto scale_name = flags.GetString("scale", "");
  const auto seed = flags.GetInt("seed", -1);
  const auto families_arg = flags.GetString("families", "");
  if (!scenario_arg.ok()) return Fail(scenario_arg.status());
  if (!scale_name.ok()) return Fail(scale_name.status());
  if (!seed.ok()) return Fail(seed.status());
  if (!families_arg.ok()) return Fail(families_arg.status());
  if (const int rc = RejectUnknown(flags)) return rc;

  auto base = scenario::LoadScenario(*scenario_arg);
  if (!base.ok()) return Fail(base.status());
  if (!scale_name->empty()) {
    auto scale = ParseScale(*scale_name);
    if (!scale.ok()) return Fail(scale.status());
    base->scale = *scale;
  }
  if (*seed >= 0) base->seed = static_cast<uint64_t>(*seed);

  eval::RedteamOptions options;
  options.base = *base;
  options.params = *params;
  if (!families_arg->empty()) {
    for (const auto part : SplitString(*families_arg, ',')) {
      options.families.emplace_back(part);
    }
  }

  std::printf("redteam: base scenario '%s' (scale=%s seed=%llu), %zu knob "
              "settings per family\n\n",
              base->name.c_str(), gen::ScenarioScaleName(base->scale),
              static_cast<unsigned long long>(base->seed),
              eval::RedteamSweepGrid().size());
  auto points = eval::RunRedteam(options);
  if (!points.ok()) return Fail(points.status());
  eval::PrintRedteamTable(std::cout, *points);
  eval::EmitRedteamGauges(*points);

  g_workload.scale = gen::ScenarioScaleName(base->scale);
  g_workload.seed = base->seed;
  return 0;
}

/// End-of-run summary: span tree plus counter/gauge tables.
void PrintMetricsSummary() {
  std::printf("\n--- span timings (count / total ms / mean ms) ---\n%s",
              obs::SpanRegistry::Global().DumpTree().c_str());
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  if (!snap.counters.empty()) {
    std::printf("--- counters ---\n");
    for (const auto& c : snap.counters) {
      std::printf("  %-44s %14llu\n", c.name.c_str(),
                  static_cast<unsigned long long>(c.value));
    }
  }
  if (!snap.gauges.empty()) {
    std::printf("--- gauges ---\n");
    for (const auto& g : snap.gauges) {
      std::printf("  %-44s %14.4f\n", g.name.c_str(), g.value);
    }
  }
}

/// Pulls the global flags --metrics_json=<path> (alias --metrics-json=) and
/// --validate out of argv so command flag parsers never see them; returns
/// the remaining args.
std::vector<char*> ExtractGlobalFlags(int argc, char** argv,
                                      std::string* metrics_path,
                                      bool* force_validate) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    bool consumed = false;
    for (const char* prefix : {"--metrics_json=", "--metrics-json="}) {
      if (arg.rfind(prefix, 0) == 0) {
        *metrics_path = arg.substr(std::string(prefix).size());
        consumed = true;
        break;
      }
    }
    if (arg == "--validate") {
      *force_validate = true;
      consumed = true;
    }
    if (!consumed) args.push_back(argv[i]);
  }
  return args;
}

/// The `validate` subcommand: audits a saved table or snapshot end to end.
/// For --snapshot, the load itself already re-verifies the header, whole-
/// file checksum and section bounds; this adds the full structural audit.
int RunValidate(const FlagParser& flags) {
  auto graph = LoadGraphFromFlags(flags);
  if (!graph.ok()) return Fail(graph.status());
  if (const int rc = RejectUnknown(flags)) return rc;

  const Status audit = check::ValidateBipartiteGraph(*graph);
  if (!audit.ok()) return Fail(audit);

  std::printf("validate: %u users, %u items, %llu edges, %llu clicks — all "
              "graph invariants hold\n",
              graph->num_users(), graph->num_items(),
              static_cast<unsigned long long>(graph->num_edges()),
              static_cast<unsigned long long>(graph->total_clicks()));
  return 0;
}

/// The `snapshot` command family: save | info.
int RunSnapshotSave(const FlagParser& flags) {
  auto clicks = LoadClicks(flags);
  if (!clicks.ok()) return Fail(clicks.status());
  const auto out = flags.GetString("out", "graph.snap");
  const auto labels_path = flags.GetString("labels", "");
  if (!out.ok() || !labels_path.ok()) return 2;
  if (const int rc = RejectUnknown(flags)) return rc;

  auto graph = graph::GraphBuilder::FromTable(*clicks);
  if (!graph.ok()) return Fail(graph.status());

  gen::LabelSet labels;
  bool have_labels = false;
  if (!labels_path->empty()) {
    auto read = gen::ReadLabels(*labels_path);
    if (!read.ok()) return Fail(read.status());
    labels = std::move(read).value();
    have_labels = true;
  }
  const Status save = snapshot::SaveSnapshot(*graph, *out,
                                             have_labels ? &labels : nullptr);
  if (!save.ok()) return Fail(save);

  // Read back through the validated loader, so the line below reports the
  // file as a later load will see it.
  auto view = snapshot::GraphView::Map(*out);
  if (!view.ok()) return Fail(view.status());
  const snapshot::SnapshotInfo& info = view->info();
  std::printf("saved snapshot %s: %llu bytes, %llu users, %llu items, %llu "
              "edges%s\n",
              out->c_str(),
              static_cast<unsigned long long>(info.file_bytes),
              static_cast<unsigned long long>(info.num_users),
              static_cast<unsigned long long>(info.num_items),
              static_cast<unsigned long long>(info.num_edges),
              info.has_labels ? " (with labels)" : "");
  return 0;
}

int RunSnapshotInfo(const FlagParser& flags) {
  const auto in = flags.GetString("in", "");
  if (!in.ok()) return 2;
  if (const int rc = RejectUnknown(flags)) return rc;
  if (in->empty()) {
    return Fail(Status::InvalidArgument("--in=<graph.snap> required"));
  }

  // The validated loader checks the header, the checksum and every section
  // before anything is printed.
  auto view = snapshot::GraphView::Map(*in);
  if (!view.ok()) return Fail(view.status());
  const snapshot::SnapshotInfo& info = view->info();
  std::printf("snapshot:     %s\n", in->c_str());
  std::printf("version:      %u\n", info.version);
  std::printf("file bytes:   %llu\n",
              static_cast<unsigned long long>(info.file_bytes));
  std::printf("checksum:     %016llx\n",
              static_cast<unsigned long long>(info.checksum));
  std::printf("users:        %llu\n",
              static_cast<unsigned long long>(info.num_users));
  std::printf("items:        %llu\n",
              static_cast<unsigned long long>(info.num_items));
  std::printf("edges:        %llu\n",
              static_cast<unsigned long long>(info.num_edges));
  std::printf("clicks:       %llu\n",
              static_cast<unsigned long long>(info.total_clicks));
  std::printf("labels:       %s",
              info.has_labels ? "yes" : "no");
  if (info.has_labels) {
    std::printf(" (%llu users, %llu items)",
                static_cast<unsigned long long>(info.label_users),
                static_cast<unsigned long long>(info.label_items));
  }
  std::printf("\n");
  return 0;
}

int RunServe(const FlagParser& flags) {
  auto clicks = LoadClicks(flags);
  if (!clicks.ok()) return Fail(clicks.status());
  auto params = ParamsFromFlags(flags);
  if (!params.ok()) return Fail(params.status());

  serve::ServeOptions options;
  options.framework.params = *params;
  options.window.max_clicks =
      EnvUint("RICD_WINDOW_CLICKS", options.window.max_clicks, 0, 1ull << 40);
  const auto port = flags.GetInt("port", 0);
  const auto handlers = flags.GetInt("handlers", 4);
  const auto batch =
      flags.GetInt("batch", static_cast<int64_t>(options.ingest_batch));
  const auto duration = flags.GetInt("duration", 0);
  if (!port.ok()) return Fail(port.status());
  if (!handlers.ok()) return Fail(handlers.status());
  if (!batch.ok()) return Fail(batch.status());
  if (!duration.ok()) return Fail(duration.status());
  if (const int rc = RejectUnknown(flags)) return rc;
  if (*port < 0 || *port > 65535) {
    return Fail(Status::InvalidArgument("--port must be in [0, 65535]"));
  }
  if (*batch <= 0 || *handlers <= 0) {
    return Fail(Status::InvalidArgument("--batch and --handlers must be > 0"));
  }
  options.ingest_batch = static_cast<size_t>(*batch);

  // A crashing server dumps its flight-recorder tail to stderr, so the
  // last publishes/rejections before the fault are never lost.
  obs::InstallCrashDump();

  serve::DetectionService service(options);
  const Status started = service.Start(*clicks);
  if (!started.ok()) return Fail(started);
  {
    const auto verdicts = service.Verdicts();
    std::printf("bootstrapped on %zu rows: %zu flagged users, %zu flagged "
                "items, %zu blocked pairs\n",
                clicks->num_rows(), verdicts->flagged_users.size(),
                verdicts->flagged_items.size(),
                verdicts->blocked_pairs.size());
  }

  serve::TcpServer::Options server_options;
  server_options.port = static_cast<uint16_t>(*port);
  server_options.handler_threads = static_cast<size_t>(*handlers);
  serve::TcpServer server(&service, server_options);
  const Status listening = server.Start();
  if (!listening.ok()) return Fail(listening);
  std::printf("serving on 127.0.0.1:%u (batch=%zu handlers=%lld)\n",
              server.port(), options.ingest_batch,
              static_cast<long long>(*handlers));
  std::fflush(stdout);

  if (*duration > 0) {
    std::this_thread::sleep_for(std::chrono::seconds(*duration));
  } else {
    // Foreground mode: run until the controlling stdin closes.
    std::printf("reading stdin; EOF stops the server\n");
    std::fflush(stdout);
    while (std::cin.get() != std::char_traits<char>::eof()) {
    }
  }

  server.Stop();
  const Status drained = service.Shutdown();
  if (!drained.ok()) return Fail(drained);
  const auto verdicts = service.Verdicts();
  std::printf("served %llu connections; final epoch %llu: %zu flagged users, "
              "%zu flagged items, %llu batches\n",
              static_cast<unsigned long long>(server.connections_served()),
              static_cast<unsigned long long>(verdicts->epoch),
              verdicts->flagged_users.size(), verdicts->flagged_items.size(),
              static_cast<unsigned long long>(verdicts->stats.batches));
  return 0;
}

int RunClient(const FlagParser& flags) {
  const auto port = flags.GetInt("port", 0);
  const auto op = flags.GetString("op", "ping");
  const auto user = flags.GetInt("user", -1);
  const auto item = flags.GetInt("item", -1);
  const auto in = flags.GetString("in", "");  // ingest source
  if (!port.ok()) return Fail(port.status());
  if (!op.ok()) return Fail(op.status());
  if (!user.ok() || !item.ok() || !in.ok()) return 2;
  if (const int rc = RejectUnknown(flags)) return rc;
  if (*port <= 0 || *port > 65535) {
    return Fail(Status::InvalidArgument("--port=<server port> required"));
  }

  serve::TcpClient client;
  const Status connected = client.Connect(static_cast<uint16_t>(*port));
  if (!connected.ok()) return Fail(connected);

  const auto print_verdict = [](const char* what, int64_t id,
                                const serve::VerdictReply& reply) {
    std::printf("%s %lld: %s (risk %.2f, epoch %llu)\n", what,
                static_cast<long long>(id),
                reply.flagged ? "FLAGGED" : "clean", reply.risk,
                static_cast<unsigned long long>(reply.epoch));
  };

  if (*op == "ping") {
    const Status pong = client.Ping();
    if (!pong.ok()) return Fail(pong);
    std::printf("pong\n");
    return 0;
  }
  if (*op == "user") {
    if (*user < 0) return Fail(Status::InvalidArgument("--user=<id> required"));
    auto reply = client.QueryUser(*user);
    if (!reply.ok()) return Fail(reply.status());
    print_verdict("user", *user, *reply);
    return 0;
  }
  if (*op == "item") {
    if (*item < 0) return Fail(Status::InvalidArgument("--item=<id> required"));
    auto reply = client.QueryItem(*item);
    if (!reply.ok()) return Fail(reply.status());
    print_verdict("item", *item, *reply);
    return 0;
  }
  if (*op == "pair") {
    if (*user < 0 || *item < 0) {
      return Fail(Status::InvalidArgument("--user and --item required"));
    }
    auto reply = client.QueryPair(*user, *item);
    if (!reply.ok()) return Fail(reply.status());
    std::printf("pair (%lld, %lld): %s (epoch %llu)\n",
                static_cast<long long>(*user), static_cast<long long>(*item),
                reply->flagged ? "BLOCKED" : "allowed",
                static_cast<unsigned long long>(reply->epoch));
    return 0;
  }
  if (*op == "stats") {
    auto reply = client.Stats();
    if (!reply.ok()) return Fail(reply.status());
    std::printf("epoch:          %llu\n",
                static_cast<unsigned long long>(reply->epoch));
    std::printf("accepted:       %llu\n",
                static_cast<unsigned long long>(reply->stats.accepted));
    std::printf("rejected:       %llu\n",
                static_cast<unsigned long long>(reply->stats.rejected));
    std::printf("applied:        %llu\n",
                static_cast<unsigned long long>(reply->stats.applied));
    std::printf("batches:        %llu\n",
                static_cast<unsigned long long>(reply->stats.batches));
    std::printf("window rows:    %llu retained / %llu evicted\n",
                static_cast<unsigned long long>(
                    reply->stats.window_retained_rows),
                static_cast<unsigned long long>(
                    reply->stats.window_evicted_rows));
    std::printf("window segs:    %llu retained / %llu evicted\n",
                static_cast<unsigned long long>(reply->stats.window_segments),
                static_cast<unsigned long long>(
                    reply->stats.window_evicted_segments));
    std::printf("window clock:   %llu\n",
                static_cast<unsigned long long>(
                    reply->stats.window_clock_high));
    std::printf("stream edges:   %llu\n",
                static_cast<unsigned long long>(reply->stats.stream_edges));
    std::printf("stream clicks:  %llu\n",
                static_cast<unsigned long long>(reply->stats.stream_clicks));
    std::printf("flagged users:  %llu\n",
                static_cast<unsigned long long>(reply->flagged_users));
    std::printf("flagged items:  %llu\n",
                static_cast<unsigned long long>(reply->flagged_items));
    std::printf("blocked pairs:  %llu\n",
                static_cast<unsigned long long>(reply->blocked_pairs));
    return 0;
  }
  if (*op == "ingest") {
    if (in->empty()) {
      return Fail(Status::InvalidArgument("--in=<clicks file> required"));
    }
    auto clicks = LoadClicks(flags);
    if (!clicks.ok()) return Fail(clicks.status());
    std::vector<table::ClickRecord> records;
    records.reserve(clicks->num_rows());
    for (size_t i = 0; i < clicks->num_rows(); ++i) {
      records.push_back(clicks->row(i));
    }
    auto ack = client.Ingest(records);
    if (!ack.ok()) return Fail(ack.status());
    std::printf("ingest: %u accepted, %u rejected (epoch %llu)\n",
                ack->accepted, ack->rejected,
                static_cast<unsigned long long>(ack->epoch));
    return ack->rejected == 0 ? 0 : 1;
  }
  return Fail(Status::InvalidArgument(
      "unknown --op '" + *op + "' (ping|user|item|pair|stats|ingest)"));
}

/// The `monitor` subcommand: one-shot (default) or periodic pull of the
/// METRICS exposition from a running server. Each poll opens a fresh
/// connection so a restarted server picks up transparently under --watch.
int RunMonitor(const FlagParser& flags) {
  const auto port = flags.GetInt("port", 0);
  const auto watch = flags.GetBool("watch", false);
  const auto interval = flags.GetDouble("interval", 2.0);
  const auto count = flags.GetInt("count", 0);
  if (!port.ok()) return Fail(port.status());
  if (!watch.ok()) return Fail(watch.status());
  if (!interval.ok()) return Fail(interval.status());
  if (!count.ok()) return Fail(count.status());
  if (const int rc = RejectUnknown(flags)) return rc;
  if (*port <= 0 || *port > 65535) {
    return Fail(Status::InvalidArgument("--port=<server port> required"));
  }
  if (*interval <= 0.0) {
    return Fail(Status::InvalidArgument("--interval must be > 0"));
  }
  const int64_t polls = *count > 0 ? *count : (*watch ? -1 : 1);

  for (int64_t i = 0; polls < 0 || i < polls; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(*interval));
    }
    serve::TcpClient client;
    const Status connected = client.Connect(static_cast<uint16_t>(*port));
    if (!connected.ok()) return Fail(connected);
    auto text = client.Metrics();
    if (!text.ok()) return Fail(text.status());
    if (i > 0) std::printf("\n");
    std::printf("%s", text->c_str());
    std::fflush(stdout);
  }
  return 0;
}

int RunSnapshot(const std::string& action, const FlagParser& flags) {
  if (action == "save") return RunSnapshotSave(flags);
  if (action == "info") return RunSnapshotInfo(flags);
  std::fprintf(stderr,
               "usage: ricd_tool snapshot <save|info> [--flags]\n"
               "  save  --in=clicks.{csv,bin} --out=graph.snap "
               "[--labels=labels.csv]\n"
               "  info  --in=graph.snap\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string metrics_path;
  bool force_validate = false;
  std::vector<char*> args =
      ExtractGlobalFlags(argc, argv, &metrics_path, &force_validate);
  if (force_validate) check::SetValidationEnabled(true);

  std::string command;
  if (args.size() >= 2 && args[1][0] != '-') {
    command = args[1];
  } else if (!metrics_path.empty() ||
             (args.size() >= 2 && args[1][0] == '-')) {
    // Flag-only invocation (`ricd_tool --metrics_json=out.json`): run the
    // self-contained pipeline so the report has something to show.
    command = "selftest";
    args.insert(args.begin() + 1, const_cast<char*>("selftest"));
  } else {
    return Usage();
  }

  const FlagParser flags(static_cast<int>(args.size()) - 1, args.data() + 1);
  int rc = 2;
  if (command == "snapshot") {
    // Second positional: the snapshot action (save|info).
    std::string action;
    size_t flag_start = 2;
    if (args.size() >= 3 && args[2][0] != '-') {
      action = args[2];
      flag_start = 3;
    }
    const FlagParser snap_flags(
        static_cast<int>(args.size()) - static_cast<int>(flag_start) + 1,
        args.data() + flag_start - 1);
    rc = RunSnapshot(action, snap_flags);
  } else if (command == "generate") {
    rc = RunGenerate(flags);
  } else if (command == "stats") {
    rc = RunStats(flags);
  } else if (command == "detect") {
    rc = RunDetect(flags);
  } else if (command == "i2i") {
    rc = RunI2i(flags);
  } else if (command == "compare") {
    rc = RunCompare(flags);
  } else if (command == "scenario") {
    rc = RunScenario(flags);
  } else if (command == "redteam") {
    rc = RunRedteamSweep(flags);
  } else if (command == "selftest") {
    rc = RunSelftest(flags);
  } else if (command == "validate") {
    rc = RunValidate(flags);
  } else if (command == "serve") {
    rc = RunServe(flags);
  } else if (command == "client") {
    rc = RunClient(flags);
  } else if (command == "monitor") {
    rc = RunMonitor(flags);
  } else {
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return Usage();
  }

  if (!metrics_path.empty()) {
    PrintMetricsSummary();
    const std::string report =
        obs::GlobalMetricsReportJson("ricd_tool " + command, g_workload);
    const Status ws = obs::WriteMetricsJson(metrics_path, report);
    if (!ws.ok()) return Fail(ws);
    std::printf("\nwrote metrics report to %s\n", metrics_path.c_str());
  }
  return rc;
}

}  // namespace
}  // namespace ricd::tool

int main(int argc, char** argv) { return ricd::tool::Main(argc, argv); }
