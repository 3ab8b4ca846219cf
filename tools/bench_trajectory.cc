// bench_trajectory — in-tree perf trajectory with regression gates.
//
//   bench_trajectory run       --bin-dir=build/bench [--out-dir=.]
//                              [--suite=serving,medium_pipeline,
//                                       adversarial,streaming]
//   bench_trajectory normalize --in=records.jsonl --scenario=NAME
//                              --source=BENCH [--out=BENCH_NAME.json]
//   bench_trajectory compare   --baseline=BENCH_NAME.json
//                              --current=other.json
//                              [--tolerance=0.15] [--min-seconds=0.0005]
//                              [--expect-regression]
//
// `run` executes each suite bench with a pinned (scale, seed) workload and
// RICD_BENCH_JSON pointed at a scratch JSONL file, then normalizes the
// record into `BENCH_<scenario>.json` in --out-dir. Those files are the
// committed trajectory: small, sorted, pretty-printed JSON that diffs
// reviewably PR over PR.
//
// `compare` gates a fresh trajectory file against a committed baseline:
// lower-is-better metrics (stage latencies, *.seconds histograms) may not
// grow past baseline*(1+tolerance); higher-is-better metrics (qps and
// speedup gauges, red-team precision/recall/f1 robustness curves) may not
// fall below baseline/(1+tolerance). Latency
// metrics where both sides sit under --min-seconds are treated as noise
// and skipped. --tolerance defaults from RICD_BENCH_TOLERANCE (else 0.15).
// Exit is non-zero on any regression; --expect-regression inverts the exit
// for the planted-slowdown fixture test.
//
// Normalized schema (version tag "ricd-bench-trajectory-v1"):
//   {"schema": ..., "scenario": ..., "source": ...,
//    "workload": {"scale", "seed", "users", "items", "edges", "clicks"},
//    "metrics": {"<name>": {"value": v, "better": "lower"|"higher"}, ...}}

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/report.h"

namespace ricd::tool {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: bench_trajectory <run|normalize|compare> [--flags]\n"
      "  run        execute the trajectory suite and write BENCH_*.json\n"
      "             --bin-dir=<dir with bench binaries> [--out-dir=.]\n"
      "             [--suite=serving,medium_pipeline,adversarial,streaming]\n"
      "  normalize  fold one RICD_BENCH_JSON record into a trajectory file\n"
      "             --in=<jsonl> --scenario=<name> --source=<bench name>\n"
      "             [--out=<path>]\n"
      "  compare    gate a fresh trajectory against a committed baseline\n"
      "             --baseline=<json> --current=<json> [--tolerance=0.15]\n"
      "             [--min-seconds=0.0005] [--expect-regression]\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// One suite entry: a bench binary pinned to a reproducible workload.
struct SuiteScenario {
  const char* name;
  const char* bench;
  const char* scale;
  const char* seed;
};

constexpr SuiteScenario kSuite[] = {
    {"serving", "bench_serving", "small", "42"},
    {"medium_pipeline", "bench_scaling", "medium", "42"},
    {"adversarial", "bench_adversarial", "tiny", "42"},
    // Windowed serving: sustained ingest qps, eviction cost and ingest/query
    // latency beside back-to-back detection runs over regime_shift.
    {"streaming", "bench_streaming", "tiny", "42"},
};

const SuiteScenario* FindScenario(const std::string& name) {
  for (const auto& s : kSuite) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

/// A comparable metric distilled from a bench record.
struct TrajectoryMetric {
  double value = 0.0;
  bool higher_better = false;
};

struct Trajectory {
  std::string scenario;
  std::string source;
  // Workload descriptors, kept as raw JSON tokens for byte-faithful
  // round-trips (seed/users/... are uint64).
  std::vector<std::pair<std::string, std::string>> workload;
  std::map<std::string, TrajectoryMetric> metrics;  // sorted by name
};

bool NameContains(const std::string& name, const char* needle) {
  return name.find(needle) != std::string::npos;
}

/// Gauges worth tracking across PRs: throughput/speedup numbers plus the
/// red-team robustness curves (detector quality per attack knob setting) —
/// all higher-is-better.
bool IsThroughputGauge(const std::string& name) {
  return NameContains(name, "qps") || NameContains(name, "speedup") ||
         NameContains(name, "per_second") || NameContains(name, "precision") ||
         NameContains(name, "recall") || NameContains(name, ".f1");
}

/// Latency histograms: every duration instrument in the tree is named
/// `*seconds` (serve.request.query_seconds, ricd.extraction.seconds, ...).
bool IsLatencyHistogram(const std::string& name) {
  return NameContains(name, "seconds");
}

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Picks the last JSONL record whose "source" matches `source` and distills
/// it into a Trajectory.
Result<Trajectory> NormalizeRecords(const std::string& jsonl,
                                    const std::string& scenario,
                                    const std::string& source) {
  Trajectory out;
  out.scenario = scenario;
  out.source = source;
  bool found = false;

  std::istringstream lines(jsonl);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    RICD_ASSIGN_OR_RETURN(const obs::JsonValue record,
                          obs::JsonValue::Parse(line));
    const obs::JsonValue* src = record.Find("source");
    if (src == nullptr || !src->is_string() || src->string_value != source) {
      continue;
    }
    found = true;
    out.workload.clear();
    out.metrics.clear();

    if (const obs::JsonValue* workload = record.Find("workload");
        workload != nullptr && workload->is_object()) {
      for (const auto& [key, value] : workload->members) {
        if (value.is_string()) {
          out.workload.emplace_back(
              key, "\"" + obs::JsonEscape(value.string_value) + "\"");
        } else if (value.is_number()) {
          out.workload.emplace_back(key, value.number_token.empty()
                                             ? FormatDouble(value.number_value)
                                             : value.number_token);
        }
      }
    }
    if (const obs::JsonValue* gauges = record.Find("gauges");
        gauges != nullptr && gauges->is_object()) {
      for (const auto& [name, value] : gauges->members) {
        if (!value.is_number() || !IsThroughputGauge(name)) continue;
        out.metrics[name] = TrajectoryMetric{value.number_value, true};
      }
    }
    if (const obs::JsonValue* hists = record.Find("histograms");
        hists != nullptr && hists->is_object()) {
      for (const auto& [name, hist] : hists->members) {
        if (!hist.is_object() || !IsLatencyHistogram(name)) continue;
        for (const char* stat : {"mean", "p50", "p99"}) {
          const obs::JsonValue* v = hist.Find(stat);
          if (v == nullptr || !v->is_number()) continue;
          out.metrics[name + "." + stat] =
              TrajectoryMetric{v->number_value, false};
        }
      }
    }
  }
  if (!found) {
    return Status::NotFound("no record with source '" + source +
                            "' in the JSONL input");
  }
  return out;
}

/// Pretty-printed, key-sorted serialization: one metric per line so the
/// committed trajectory diffs metric by metric.
std::string SerializeTrajectory(const Trajectory& t) {
  std::string out = "{\n";
  out += "  \"schema\": \"ricd-bench-trajectory-v1\",\n";
  out += "  \"scenario\": \"" + obs::JsonEscape(t.scenario) + "\",\n";
  out += "  \"source\": \"" + obs::JsonEscape(t.source) + "\",\n";
  out += "  \"workload\": {";
  for (size_t i = 0; i < t.workload.size(); ++i) {
    out += (i == 0 ? "" : ", ");
    out += "\"" + obs::JsonEscape(t.workload[i].first) +
           "\": " + t.workload[i].second;
  }
  out += "},\n";
  out += "  \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : t.metrics) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + obs::JsonEscape(name) +
           "\": {\"value\": " + FormatDouble(metric.value) +
           ", \"better\": \"" + (metric.higher_better ? "higher" : "lower") +
           "\"}";
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
      schema->string_value != "ricd-bench-trajectory-v1") {
    return Status::InvalidArgument(path +
                                   ": not a ricd-bench-trajectory-v1 file");
  }
  Trajectory t;
  if (const obs::JsonValue* s = doc.Find("scenario"); s != nullptr) {
    t.scenario = s->string_value;
  }
  if (const obs::JsonValue* s = doc.Find("source"); s != nullptr) {
    t.source = s->string_value;
  }
  const obs::JsonValue* metrics = doc.Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return Status::InvalidArgument(path + ": missing \"metrics\" object");
  }
  for (const auto& [name, entry] : metrics->members) {
    const obs::JsonValue* value = entry.Find("value");
    const obs::JsonValue* better = entry.Find("better");
    if (value == nullptr || !value->is_number() || better == nullptr) {
      return Status::InvalidArgument(path + ": malformed metric '" + name +
                                     "'");
    }
    t.metrics[name] =
        TrajectoryMetric{value->number_value, better->string_value == "higher"};
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
  const auto source = flags.GetString("source", "");
  if (!in.ok() || !scenario.ok() || !source.ok()) return 2;
  if (in->empty() || scenario->empty() || source->empty()) {
    return Fail(Status::InvalidArgument(
        "--in, --scenario and --source are all required"));
  }
  const auto out =
      flags.GetString("out", "BENCH_" + *scenario + ".json");
  if (!out.ok()) return 2;

  auto jsonl = ReadFile(*in);
  if (!jsonl.ok()) return Fail(jsonl.status());
  auto trajectory = NormalizeRecords(*jsonl, *scenario, *source);
  if (!trajectory.ok()) return Fail(trajectory.status());
  const Status written = WriteTrajectory(*trajectory, *out);
  if (!written.ok()) return Fail(written);
  std::printf("wrote %zu metrics for scenario '%s' to %s\n",
              trajectory->metrics.size(), scenario->c_str(), out->c_str());
  return 0;
}

double DefaultTolerance() {
  const char* env = std::getenv("RICD_BENCH_TOLERANCE");
  if (env == nullptr || env[0] == '\0') return 0.15;
  char* end = nullptr;
  const double parsed = std::strtod(env, &end);
  return (end != env && parsed > 0.0) ? parsed : 0.15;
}

int RunCompare(const FlagParser& flags) {
  const auto baseline_path = flags.GetString("baseline", "");
  const auto current_path = flags.GetString("current", "");
  const auto tolerance = flags.GetDouble("tolerance", DefaultTolerance());
  const auto min_seconds = flags.GetDouble("min-seconds", 0.0005);
  const auto expect_regression = flags.GetBool("expect-regression", false);
  if (!baseline_path.ok() || !current_path.ok()) return 2;
  if (!tolerance.ok()) return Fail(tolerance.status());
  if (!min_seconds.ok()) return Fail(min_seconds.status());
  if (!expect_regression.ok()) return 2;
  if (baseline_path->empty() || current_path->empty()) {
    return Fail(
        Status::InvalidArgument("--baseline and --current are required"));
  }

  auto baseline = LoadTrajectory(*baseline_path);
  if (!baseline.ok()) return Fail(baseline.status());
  auto current = LoadTrajectory(*current_path);
  if (!current.ok()) return Fail(current.status());

  std::printf("comparing %s -> %s (tolerance %.0f%%)\n",
              baseline_path->c_str(), current_path->c_str(),
              *tolerance * 100.0);
  size_t regressions = 0;
  size_t compared = 0;
  size_t skipped_noise = 0;
  for (const auto& [name, base] : baseline->metrics) {
    const auto it = current->metrics.find(name);
    if (it == current->metrics.end()) {
      std::printf("  [gone]    %-52s (absent from current run)\n",
                  name.c_str());
      continue;
    }
    const TrajectoryMetric& cur = it->second;
    // Sub-floor latencies are timer noise, not signal: a 0.1ms stage that
    // doubles is still invisible to users and flaps the gate.
    if (!base.higher_better &&
        std::max(base.value, cur.value) < *min_seconds) {
      ++skipped_noise;
      continue;
    }
    ++compared;
    const bool regressed =
        base.higher_better
            ? cur.value * (1.0 + *tolerance) < base.value
            : cur.value > base.value * (1.0 + *tolerance);
    const double ratio =
        base.value != 0.0 ? cur.value / base.value
                          : (cur.value == 0.0 ? 1.0 : 0.0);
    if (regressed) ++regressions;
    std::printf("  [%s] %-52s %12.6g -> %-12.6g (%.2fx, %s-is-better)\n",
                regressed ? "REGRESS" : "ok     ", name.c_str(), base.value,
                cur.value, ratio, base.higher_better ? "higher" : "lower");
  }
  for (const auto& [name, cur] : current->metrics) {
    if (baseline->metrics.count(name) == 0) {
      std::printf("  [new]     %-52s %12.6g (no baseline yet)\n", name.c_str(),
                  cur.value);
    }
  }
  std::printf("compared %zu metric(s): %zu regression(s), %zu below the "
              "%.4gs noise floor\n",
              compared, regressions, skipped_noise, *min_seconds);

  if (*expect_regression) {
    if (regressions == 0) {
      std::fprintf(stderr,
                   "error: --expect-regression set but no regression was "
                   "detected\n");
      return 1;
    }
    std::printf("expected regression detected; exiting 0\n");
    return 0;
  }
  return regressions == 0 ? 0 : 1;
}

int RunSuite(const FlagParser& flags) {
  const auto bin_dir = flags.GetString("bin-dir", "");
  const auto out_dir = flags.GetString("out-dir", ".");
  const auto suite =
      flags.GetString("suite",
                      "serving,medium_pipeline,adversarial,streaming");
  if (!bin_dir.ok() || !out_dir.ok() || !suite.ok()) return 2;
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
      return Fail(Status::InvalidArgument(
          "unknown suite scenario '" + name +
          "' (serving|medium_pipeline|adversarial|streaming)"));
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
    auto trajectory = NormalizeRecords(*records, s->name, s->bench);
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
