// bench_trajectory — deterministic bench records, compared exactly.
//
//   bench_trajectory run       --bin-dir=build/bench [--out-dir=.]
//                              [--suite=medium_pipeline,adversarial]
//   bench_trajectory normalize --in=records.jsonl --scenario=NAME
//                              [--out=BENCH_NAME.json]
//   bench_trajectory compare   --baseline=BENCH_NAME.json
//                              --current=other.json [--expect-regression]
//
// `run` executes each suite bench with its pinned (scale, seed) workload and
// RICD_BENCH_JSON pointed at a scratch JSONL file, then normalizes the
// record into `BENCH_<scenario>.json` in --out-dir. Those files are the
// committed trajectory: sorted, one metric per line, so a moved counter
// diffs as one line.
//
// `normalize` keeps the counters and gauges whose names start with one of
// the suite entry's prefixes, and never a histogram. Every kept metric is a
// pure function of the workload, so it reads the same on every host, at
// every worker count and under load; wall time belongs to perfbench. A
// prefix that matches no metric fails, so renaming a metric cannot
// silently empty a record.
//
// `compare` fails on any difference: a workload descriptor, a metric
// present on one side only, or a value token (the number text exactly as
// the bench wrote it). --expect-regression inverts the exit for the
// fixture tests that plant a difference.
//
// Schema "ricd-bench-trajectory-v2":
//   {"schema": ..., "scenario": ..., "source": ...,
//    "workload": {"clicks", "edges", "items", "scale", "seed", "users"},
//    "metrics": {"<name>": <value>, ...}}

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/report.h"

namespace ricd::tool {
namespace {

constexpr const char* kSchema = "ricd-bench-trajectory-v2";

int Usage() {
  std::fprintf(
      stderr,
      "usage: bench_trajectory <run|normalize|compare> [--flags]\n"
      "  run        execute the trajectory suite and write BENCH_*.json\n"
      "             --bin-dir=<dir with bench binaries> [--out-dir=.]\n"
      "             [--suite=medium_pipeline,adversarial]\n"
      "  normalize  fold one RICD_BENCH_JSON record into a trajectory file\n"
      "             --in=<jsonl> --scenario=<suite entry> [--out=<path>]\n"
      "  compare    fail on any difference from a committed trajectory\n"
      "             --baseline=<json> --current=<json>\n"
      "             [--expect-regression]\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Rejects flags no getter asked about, so a mistyped or retired flag fails
/// instead of being ignored.
int RejectUnknown(const FlagParser& flags) {
  const auto unknown = flags.UnknownFlags();
  for (const auto& name : unknown) {
    std::fprintf(stderr, "error: unknown flag --%s\n", name.c_str());
  }
  return unknown.empty() ? 0 : 2;
}

/// One suite entry: a bench binary pinned to a reproducible workload, and
/// the name prefixes of the deterministic metrics its record keeps.
struct SuiteScenario {
  const char* name;
  const char* bench;
  const char* scale;
  const char* seed;
  std::vector<std::string> prefixes;
};

const SuiteScenario kSuite[] = {
    // Section V-D work of one extraction, summed over the bench's 1-, 2-
    // and 4-worker runs, plus the generated workload's size.
    {"medium_pipeline", "bench_parallel_scaling", "medium", "42",
     {"ricd.", "gen.scenario."}},
    // Red-team precision/recall/f1 per attack family, knob setting and
    // detector.
    {"adversarial", "bench_adversarial", "tiny", "42", {"bench.adversarial."}},
};

const SuiteScenario* FindScenario(const std::string& name) {
  for (const auto& s : kSuite) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::string SuiteNames() {
  std::string names;
  for (const auto& s : kSuite) {
    names += (names.empty() ? "" : "|");
    names += s.name;
  }
  return names;
}

/// A record as name -> JSON token, workload descriptors and metric values
/// alike, kept verbatim so `compare` sees exactly what the bench wrote.
struct Trajectory {
  std::string scenario;
  std::string source;
  std::map<std::string, std::string> workload;
  std::map<std::string, std::string> metrics;
};

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Distills the last JSONL record whose "source" is the entry's bench.
Result<Trajectory> NormalizeRecords(const std::string& jsonl,
                                    const SuiteScenario& entry) {
  std::optional<obs::JsonValue> record;
  std::istringstream lines(jsonl);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    RICD_ASSIGN_OR_RETURN(obs::JsonValue parsed, obs::JsonValue::Parse(line));
    const obs::JsonValue* src = parsed.Find("source");
    if (src != nullptr && src->is_string() &&
        src->string_value == entry.bench) {
      record = std::move(parsed);
    }
  }
  if (!record.has_value()) {
    return Status::NotFound(std::string("no record with source '") +
                            entry.bench + "' in the JSONL input");
  }

  Trajectory out{entry.name, entry.bench, {}, {}};
  if (const obs::JsonValue* workload = record->Find("workload");
      workload != nullptr && workload->is_object()) {
    for (const auto& [key, value] : workload->members) {
      out.workload[key] = value.Serialize();
    }
  }
  const auto kept = [&](const std::string& name) {
    return std::any_of(
        entry.prefixes.begin(), entry.prefixes.end(),
        [&](const std::string& prefix) { return name.starts_with(prefix); });
  };
  for (const char* section : {"counters", "gauges"}) {
    const obs::JsonValue* metrics = record->Find(section);
    if (metrics == nullptr || !metrics->is_object()) continue;
    for (const auto& [name, value] : metrics->members) {
      if (value.is_number() && kept(name)) {
        out.metrics[name] = value.Serialize();
      }
    }
  }
  for (const std::string& prefix : entry.prefixes) {
    const bool matched = std::any_of(
        out.metrics.begin(), out.metrics.end(),
        [&](const auto& metric) { return metric.first.starts_with(prefix); });
    if (!matched) {
      return Status::InvalidArgument(
          std::string("no counter or gauge of the '") + entry.bench +
          "' record starts with '" + prefix + "'");
    }
  }
  return out;
}

/// Pretty-printed, key-sorted serialization: one metric per line so the
/// committed trajectory diffs metric by metric.
std::string SerializeTrajectory(const Trajectory& t) {
  std::string out = "{\n";
  out += std::string("  \"schema\": \"") + kSchema + "\",\n";
  out += "  \"scenario\": \"" + obs::JsonEscape(t.scenario) + "\",\n";
  out += "  \"source\": \"" + obs::JsonEscape(t.source) + "\",\n";
  out += "  \"workload\": {";
  bool first = true;
  for (const auto& [key, token] : t.workload) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + obs::JsonEscape(key) + "\": " + token;
  }
  out += "},\n";
  out += "  \"metrics\": {";
  first = true;
  for (const auto& [name, token] : t.metrics) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + obs::JsonEscape(name) + "\": " + token;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

Result<Trajectory> LoadTrajectory(const std::string& path) {
  RICD_ASSIGN_OR_RETURN(const std::string text, ReadFile(path));
  RICD_ASSIGN_OR_RETURN(const obs::JsonValue doc, obs::JsonValue::Parse(text));
  const obs::JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string_value != kSchema) {
    return Status::InvalidArgument(path + ": not a " + kSchema + " file");
  }
  const obs::JsonValue* workload = doc.Find("workload");
  const obs::JsonValue* metrics = doc.Find("metrics");
  if (workload == nullptr || !workload->is_object() || metrics == nullptr ||
      !metrics->is_object()) {
    return Status::InvalidArgument(
        path + ": missing \"workload\" or \"metrics\" object");
  }
  Trajectory t;
  for (const auto& [key, value] : workload->members) {
    t.workload[key] = value.Serialize();
  }
  for (const auto& [name, value] : metrics->members) {
    if (!value.is_number()) {
      return Status::InvalidArgument(path + ": metric '" + name +
                                     "' is not a number");
    }
    t.metrics[name] = value.Serialize();
  }
  return t;
}

Status WriteTrajectory(const Trajectory& t, const std::string& path) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) return Status::Internal("cannot write " + path);
  out << SerializeTrajectory(t);
  out.flush();
  if (!out) return Status::Internal("short write to " + path);
  return Status::Ok();
}

int RunNormalize(const FlagParser& flags) {
  const auto in = flags.GetString("in", "");
  const auto scenario = flags.GetString("scenario", "");
  if (!in.ok() || !scenario.ok()) return 2;
  if (in->empty() || scenario->empty()) {
    return Fail(Status::InvalidArgument("--in and --scenario are required"));
  }
  const SuiteScenario* entry = FindScenario(*scenario);
  if (entry == nullptr) {
    return Fail(Status::InvalidArgument("unknown suite scenario '" +
                                        *scenario + "' (" + SuiteNames() +
                                        ")"));
  }
  const auto out = flags.GetString("out", "BENCH_" + *scenario + ".json");
  if (!out.ok()) return 2;
  if (const int rc = RejectUnknown(flags)) return rc;

  auto jsonl = ReadFile(*in);
  if (!jsonl.ok()) return Fail(jsonl.status());
  auto trajectory = NormalizeRecords(*jsonl, *entry);
  if (!trajectory.ok()) return Fail(trajectory.status());
  const Status written = WriteTrajectory(*trajectory, *out);
  if (!written.ok()) return Fail(written);
  std::printf("wrote %zu metrics for scenario '%s' to %s\n",
              trajectory->metrics.size(), scenario->c_str(), out->c_str());
  return 0;
}

/// Prints every key whose token differs between the two sides, or that one
/// side lacks, and returns how many there were.
size_t DiffTokens(const char* kind,
                  const std::map<std::string, std::string>& baseline,
                  const std::map<std::string, std::string>& current) {
  std::map<std::string, std::pair<std::string, std::string>> keys;
  for (const auto& [key, token] : baseline) keys[key].first = token;
  for (const auto& [key, token] : current) keys[key].second = token;
  size_t differences = 0;
  for (const auto& [key, tokens] : keys) {
    if (tokens.first == tokens.second) continue;
    ++differences;
    std::printf("  %s %s: %s -> %s\n", kind, key.c_str(),
                tokens.first.empty() ? "(absent)" : tokens.first.c_str(),
                tokens.second.empty() ? "(absent)" : tokens.second.c_str());
  }
  return differences;
}

int RunCompare(const FlagParser& flags) {
  const auto baseline_path = flags.GetString("baseline", "");
  const auto current_path = flags.GetString("current", "");
  const auto expect_regression = flags.GetBool("expect-regression", false);
  if (!baseline_path.ok() || !current_path.ok() || !expect_regression.ok()) {
    return 2;
  }
  if (const int rc = RejectUnknown(flags)) return rc;
  if (baseline_path->empty() || current_path->empty()) {
    return Fail(
        Status::InvalidArgument("--baseline and --current are required"));
  }

  auto baseline = LoadTrajectory(*baseline_path);
  if (!baseline.ok()) return Fail(baseline.status());
  auto current = LoadTrajectory(*current_path);
  if (!current.ok()) return Fail(current.status());

  std::printf("comparing %s (baseline) with %s (current)\n",
              baseline_path->c_str(), current_path->c_str());
  const size_t differences =
      DiffTokens("workload", baseline->workload, current->workload) +
      DiffTokens("metric", baseline->metrics, current->metrics);
  std::printf("compared %zu workload descriptor(s) and %zu metric(s): %zu "
              "difference(s)\n",
              baseline->workload.size(), baseline->metrics.size(),
              differences);

  if (*expect_regression) {
    if (differences == 0) {
      std::fprintf(stderr,
                   "error: --expect-regression set but the files agree\n");
      return 1;
    }
    std::printf("expected difference detected; exiting 0\n");
    return 0;
  }
  return differences == 0 ? 0 : 1;
}

int RunSuite(const FlagParser& flags) {
  const auto bin_dir = flags.GetString("bin-dir", "");
  const auto out_dir = flags.GetString("out-dir", ".");
  const auto suite = flags.GetString("suite", "medium_pipeline,adversarial");
  if (!bin_dir.ok() || !out_dir.ok() || !suite.ok()) return 2;
  if (const int rc = RejectUnknown(flags)) return rc;
  if (bin_dir->empty()) {
    return Fail(Status::InvalidArgument(
        "--bin-dir=<directory with bench binaries> required"));
  }

  std::vector<const SuiteScenario*> selected;
  std::istringstream names(*suite);
  std::string name;
  while (std::getline(names, name, ',')) {
    if (name.empty()) continue;
    const SuiteScenario* s = FindScenario(name);
    if (s == nullptr) {
      return Fail(Status::InvalidArgument("unknown suite scenario '" + name +
                                          "' (" + SuiteNames() + ")"));
    }
    selected.push_back(s);
  }
  if (selected.empty()) {
    return Fail(Status::InvalidArgument("--suite selected no scenarios"));
  }

  for (const SuiteScenario* s : selected) {
    const std::string jsonl = *out_dir + "/BENCH_" + s->name + ".jsonl";
    const std::string log = *out_dir + "/BENCH_" + s->name + ".log";
    std::remove(jsonl.c_str());
    std::printf("[trajectory] running %s (scale=%s seed=%s) ...\n", s->bench,
                s->scale, s->seed);
    std::fflush(stdout);
    const std::string command = "RICD_SCALE=" + std::string(s->scale) +
                                " RICD_SEED=" + std::string(s->seed) +
                                " RICD_BENCH_JSON='" + jsonl + "' '" +
                                *bin_dir + "/" + s->bench + "' > '" + log +
                                "' 2>&1";
    const int rc = std::system(command.c_str());
    if (rc != 0) {
      return Fail(Status::Internal(std::string(s->bench) +
                                   " exited non-zero; see " + log));
    }
    auto records = ReadFile(jsonl);
    if (!records.ok()) return Fail(records.status());
    auto trajectory = NormalizeRecords(*records, *s);
    if (!trajectory.ok()) return Fail(trajectory.status());
    const std::string out = *out_dir + "/BENCH_" + std::string(s->name) +
                            ".json";
    const Status written = WriteTrajectory(*trajectory, out);
    if (!written.ok()) return Fail(written);
    std::remove(jsonl.c_str());
    std::remove(log.c_str());
    std::printf("[trajectory] wrote %zu metrics to %s\n",
                trajectory->metrics.size(), out.c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2 || argv[1][0] == '-') return Usage();
  const std::string command = argv[1];
  const FlagParser flags(argc - 1, argv + 1);
  if (command == "run") return RunSuite(flags);
  if (command == "normalize") return RunNormalize(flags);
  if (command == "compare") return RunCompare(flags);
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return Usage();
}

}  // namespace
}  // namespace ricd::tool

int main(int argc, char** argv) { return ricd::tool::Main(argc, argv); }
