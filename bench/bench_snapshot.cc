// Snapshot cold-path vs warm-path comparison (src/snapshot).
//
// Times the full cold workload path — scenario generation, CSV write +
// re-parse (the on-disk log format), CSR graph construction — against the
// snapshot warm paths: binary save, owning read, and mmap zero-copy load.
// The acceptance bar for the snapshot subsystem is mmap load >= 10x faster
// than generate + parse + build at the default medium scale.
//
// Scale via RICD_SCALE (default medium), seed via RICD_SEED. Set
// RICD_BENCH_JSON=<path> to append the machine-readable record (the stage
// histograms below are bench.snapshot.*).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <unistd.h>

#include "bench/bench_common.h"
#include "gen/scenario.h"
#include "graph/graph_builder.h"
#include "snapshot/snapshot.h"
#include "table/table_io.h"

namespace ricd::bench {
namespace {

int Run() {
  PrintHeader("snapshot save/load vs generate+parse+build",
              "engineering extension: binary graph snapshots (src/snapshot)");
  const gen::ScenarioScale scale = ScaleFromEnv(gen::ScenarioScale::kMedium);
  const uint64_t seed = SeedFromEnv(42);

  const std::string stem =
      "/tmp/ricd_bench_snapshot." + std::to_string(::getpid());
  const std::string csv_path = stem + ".csv";
  const std::string snap_path = stem + ".snap";

  // --- cold path: generate -> CSV round trip -> build ------------------
  gen::Scenario scenario;
  const double gen_s = TimedStage("bench.snapshot.generate", [&] {
    auto made =
        ricd::scenario::Materialize(ricd::scenario::BaselineSpec(scale, seed));
    RICD_CHECK(made.ok()) << made.status();
    scenario = std::move(made).value();
  });

  table::ClickTable parsed;
  const double parse_s = TimedStage("bench.snapshot.csv_roundtrip", [&] {
    const Status ws = table::WriteCsv(scenario.table, csv_path);
    RICD_CHECK(ws.ok()) << ws;
    auto read = table::ReadCsv(csv_path);
    RICD_CHECK(read.ok()) << read.status();
    parsed = std::move(read).value();
  });

  graph::BipartiteGraph graph;
  const double build_s = TimedStage("bench.snapshot.build", [&] {
    auto built = graph::GraphBuilder::FromTable(parsed);
    RICD_CHECK(built.ok()) << built.status();
    graph = std::move(built).value();
  });

  // --- warm paths: save once, then owning read and mmap load -----------
  const double save_s = TimedStage("bench.snapshot.save", [&] {
    const Status saved =
        snapshot::SaveSnapshot(graph, snap_path, &scenario.labels);
    RICD_CHECK(saved.ok()) << saved;
  });

  double read_s = 0.0;
  {
    snapshot::GraphView view = [&] {
      auto loaded = snapshot::GraphView::Read(snap_path);
      RICD_CHECK(loaded.ok()) << loaded.status();
      return std::move(loaded).value();
    }();
    read_s = TimedStage("bench.snapshot.read", [&] {
      auto loaded = snapshot::GraphView::Read(snap_path);
      RICD_CHECK(loaded.ok()) << loaded.status();
      view = std::move(loaded).value();
    });
    RICD_CHECK(view.graph().num_edges() == graph.num_edges());
  }

  // Best of several mmap iterations: after the first touch the page cache
  // is warm, which is exactly the steady state the cache targets.
  double mmap_s = 1e100;
  for (int i = 0; i < 5; ++i) {
    snapshot::GraphView view = [&] {
      auto loaded = snapshot::GraphView::Map(snap_path);
      RICD_CHECK(loaded.ok()) << loaded.status();
      return std::move(loaded).value();
    }();
    const double s = TimedStage("bench.snapshot.mmap_load", [&] {
      auto loaded = snapshot::GraphView::Map(snap_path);
      RICD_CHECK(loaded.ok()) << loaded.status();
      view = std::move(loaded).value();
    });
    mmap_s = std::min(mmap_s, s);
    RICD_CHECK(view.graph().total_clicks() == graph.total_clicks());
  }

  const double cold_s = gen_s + parse_s + build_s;
  std::printf("stage timings (scale=%s seed=%llu, %u users / %u items / "
              "%llu edges):\n",
              gen::ScenarioScaleName(scale),
              static_cast<unsigned long long>(seed), graph.num_users(),
              graph.num_items(),
              static_cast<unsigned long long>(graph.num_edges()));
  std::printf("  generate             %10.4f s\n", gen_s);
  std::printf("  csv write + parse    %10.4f s\n", parse_s);
  std::printf("  graph build          %10.4f s\n", build_s);
  std::printf("  cold total           %10.4f s\n", cold_s);
  std::printf("  snapshot save        %10.4f s\n", save_s);
  std::printf("  snapshot read        %10.4f s   (%6.1fx vs cold)\n", read_s,
              read_s > 0 ? cold_s / read_s : 0.0);
  std::printf("  snapshot mmap load   %10.4f s   (%6.1fx vs cold)\n", mmap_s,
              mmap_s > 0 ? cold_s / mmap_s : 0.0);
  // The >= 10x acceptance bar is defined at medium scale and above; tiny
  // workloads have a cold path of a few ms, so smoke runs report the ratio
  // without enforcing it.
  const double speedup = mmap_s > 0 ? cold_s / mmap_s : 0.0;
  const bool enforce =
      static_cast<int>(scale) >= static_cast<int>(gen::ScenarioScale::kMedium);
  std::printf("\nmmap speedup over generate+parse+build: %.1fx (target: "
              ">= 10x at medium+) — %s\n",
              speedup,
              speedup >= 10.0 ? "PASS" : (enforce ? "FAIL" : "not enforced"));

  obs::WorkloadScale desc;
  desc.scale = gen::ScenarioScaleName(scale);
  desc.seed = seed;
  desc.users = graph.num_users();
  desc.items = graph.num_items();
  desc.edges = graph.num_edges();
  desc.clicks = graph.total_clicks();
  obs::MetricsRegistry::Global()
      .GetGauge("bench.snapshot.mmap_speedup")
      ->Set(speedup);
  FinishBench("bench_snapshot", desc);

  std::remove(csv_path.c_str());
  std::remove(snap_path.c_str());
  return (!enforce || speedup >= 10.0) ? 0 : 1;
}

}  // namespace
}  // namespace ricd::bench

int main() { return ricd::bench::Run(); }
