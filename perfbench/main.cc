// ricd_perfbench: one run of one benchmark workload. Usually started by
// run.py, which builds it first:
//
//   ricd_perfbench --workload offline_medium --seed 1 --seconds 20 --trace 0
//
// The last stdout line is the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1) of BENCHMARK.json. Exit code 0 only when the run completed
// and every output check passed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"

extern char** environ;

namespace ricd::perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// BENCHMARK.json's metrics, in its order (selftest.py checks that the two
// agree). Every untraced run reports every end-to-end metric, measured and
// above 0. Every traced run reports every per-layer metric; a layer the
// workload never calls reports 0.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"verdict_latency_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"ok_frac", "frac"},
};
constexpr MetricSpec kPerLayer[] = {
    {"gen.materialize_s", "s"},
    {"ricd.generate_graph_s", "s"},
    {"graph.hot_threshold_s", "s"},
    {"graph.components_s", "s"},
    {"ricd.core_pruning_s", "s"},
    {"ricd.square_pruning_s", "s"},
    {"ricd.square_sweeps", "count"},
    {"ricd.core_survivor_users", "count"},
    {"ricd.core_survivor_items", "count"},
    {"ricd.core_survivor_edges", "count"},
    {"ricd.extraction.rounds", "count"},
    {"ricd.extraction.round_rechecks", "count"},
    {"engine.extract_1w_s", "s"},
    {"engine.extract_nw_s", "s"},
    {"engine.pool.tasks_total", "count"},
    {"ricd.screening_s", "s"},
    {"ricd.identification_s", "s"},
    {"ricd.incremental.bootstrap_s", "s"},
    {"ricd.incremental.ingest_s", "s"},
    {"ricd.incremental.region_edge_frac", "frac"},
    {"ricd.incremental.capacity_cps", "1/s"},
    {"window.append_s", "s"},
    {"window.materialize_s", "s"},
    {"serve.start_s", "s"},
    {"serve.ingest_call_s", "s"},
    {"serve.ingest_rejected", "count"},
    {"serve.publishes", "count"},
    {"serve.clicks_per_publish", "count"},
    {"serve.publish_gap_s", "s"},
    {"serve.freshness_p90_s", "s"},
    {"serve.rebuilds", "count"},
    {"serve.ingest.batches", "count"},
    {"loadgen.late_p90_s", "s"},
    {"serve.verdicts_acquire_s", "s"},
    {"serve.inproc_query_s", "s"},
    {"serve.query_p50_s", "s"},
    {"serve.query_p90_s", "s"},
    {"serve.tcp_query_s", "s"},
    {"serve.tcp_ingest_s", "s"},
    {"serve.server.requests", "count"},
    {"serve.server.protocol_errors", "count"},
    {"host.steal_s", "s"},
    {"host.calib_s", "s"},
    {"trace.overhead_frac", "frac"},
};

/// Puts `metrics` in the order of `specs`. A name `specs` does not list, a
/// repeated name, a unit other than the listed one or a value that is not
/// finite is an error. So is a missing metric or, when `end_to_end`, one
/// at or below 0; per-layer metrics a workload never reached are 0.
template <size_t N>
Status Complete(const MetricSpec (&specs)[N], bool end_to_end,
                std::vector<Metric>* metrics) {
  std::vector<Metric> ordered;
  size_t matched = 0;
  for (const MetricSpec& spec : specs) {
    const auto is_spec = [&](const Metric& m) { return m.name == spec.name; };
    const auto found =
        std::find_if(metrics->begin(), metrics->end(), is_spec);
    if (found == metrics->end()) {
      if (end_to_end) {
        return Status::Internal(std::string("no value for ") + spec.name);
      }
      ordered.push_back({spec.name, spec.unit, 0.0});
      continue;
    }
    ++matched;
    if (std::count_if(metrics->begin(), metrics->end(), is_spec) > 1 ||
        found->unit != spec.unit || !std::isfinite(found->value) ||
        (end_to_end && found->value <= 0)) {
      return Status::Internal(std::string("bad value for ") + spec.name);
    }
    ordered.push_back(*found);
  }
  if (matched != metrics->size()) {
    return Status::Internal("a metric outside BENCHMARK.json was reported");
  }
  *metrics = std::move(ordered);
  return Status::Ok();
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "ricd_perfbench: %s\nusage: ricd_perfbench --workload "
               "<offline_medium|stream_window|serve_mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale tiny] [--spans <path>]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, RunOptions* options) {
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options->seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "tiny") return false;
      options->tiny = true;
    } else if (flag == "--spans") {
      options->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds &&
         !options->workload.empty();
}

/// The library reads RICD_* knobs from the environment; clear them all so
/// every run measures the same configuration, then pin the engine width.
void ResetEnvironment(size_t workers) {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "RICD_", 5) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  setenv("RICD_WORKERS", std::to_string(workers).c_str(), 1);
}

void PrintResult(const Report& report, bool correct) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  char value[64];
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  RunOptions options;
  if (!ParseArgs(argc, argv, &options)) return Usage("bad arguments");
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  Status (*workload)(const RunOptions&, Tracer*, Report*) = nullptr;
  if (options.workload == "offline_medium") {
    workload = RunOfflineMedium;
    ResetEnvironment(std::min<size_t>(4, nproc));
  } else if (options.workload == "stream_window") {
    workload = RunStreamWindow;
    ResetEnvironment(1);
  } else if (options.workload == "serve_mixed") {
    workload = RunServeMixed;
    ResetEnvironment(1);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }

  const double steal0 = HostStealSeconds();
  Tracer tracer(options.trace);
  Report report;
  const Status status = workload(options, &tracer, &report);
  const double peak_rss_mb = PeakRssMb();
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "ricd_perfbench: %s failed: %s\n",
                 options.workload.c_str(), status.ToString().c_str());
    return 1;
  }
  // Host diagnostics, recorded but never compared: steal time over the run
  // and a fixed memory-bound loop, so host drift can be told apart from a
  // regression. Taken after peak RSS so the loop's buffer is not counted.
  const double calib_s = MemoryCalibrationSeconds();
  const double steal_s = HostStealSeconds() - steal0;
  std::printf("host: steal_s=%.3f calib_s=%.4f nproc=%zu\n", steal_s, calib_s,
              nproc);

  if (options.trace) {
    report.Add("host.steal_s", "s", steal_s);
    report.Add("host.calib_s", "s", calib_s);
    if (!options.spans_path.empty()) {
      const Status written = tracer.WriteJson(options.spans_path);
      if (!written.ok()) {
        std::fprintf(stderr, "ricd_perfbench: %s\n",
                     written.ToString().c_str());
        return 1;
      }
      std::printf("spans: %zu written to %s\n", tracer.records().size(),
                  options.spans_path.c_str());
    }
  } else {
    report.Add("peak_rss_mb", "MiB", peak_rss_mb);
    report.Add("ok_frac", "frac",
               report.attempted == 0
                   ? 0.0
                   : static_cast<double>(report.attempted - report.failed) /
                         static_cast<double>(report.attempted));
  }
  const Status complete =
      options.trace ? Complete(kPerLayer, false, &report.metrics)
                    : Complete(kEndToEnd, true, &report.metrics);
  if (!complete.ok()) {
    std::fprintf(stderr, "ricd_perfbench: %s: %s\n", options.workload.c_str(),
                 complete.ToString().c_str());
    return 1;
  }
  const bool correct = report.failed == 0 && report.attempted > 0;
  PrintResult(report, correct);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ricd::perfbench

int main(int argc, char** argv) { return ricd::perfbench::Main(argc, argv); }
