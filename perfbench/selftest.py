#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. For every workload it runs a tiny-scale
untraced and traced run and asserts that the result line has exactly the
keys correct, attempted, failed and metrics, that it holds every end-to-end
(untraced) or per-layer (traced) metric of BENCHMARK.json once, in its order
and unit, that every end-to-end metric is above 0 and every layer timing the
workload measures is above 0 (so a zero fill cannot hide a lost
measurement), that every output check passed and that ok_frac is 1. It then
copies BENCHMARK.json and perfbench/ alone into a scratch directory and
asserts that the benchmark fails there without printing a result. Exit code
0 when everything holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer timings each workload measures, so they must read above 0. The
# layers a workload never calls report 0 (perfbench/README.md).
DETECT_LAYER = ["gen.materialize_s", "ricd.generate_graph_s",
                "graph.hot_threshold_s", "graph.components_s",
                "ricd.core_pruning_s", "ricd.square_pruning_s",
                "ricd.screening_s", "ricd.identification_s",
                "engine.extract_1w_s", "engine.extract_nw_s", "host.calib_s"]
PUBLISH_LAYER = ["serve.start_s", "serve.publishes", "serve.clicks_per_publish",
                 "serve.publish_gap_s", "serve.freshness_p90_s",
                 "serve.ingest.batches",
                 "serve.verdicts_acquire_s", "loadgen.late_p90_s"]
MEASURED = {
    "offline_medium": DETECT_LAYER,
    "stream_window": DETECT_LAYER + PUBLISH_LAYER + [
        "ricd.incremental.bootstrap_s", "ricd.incremental.ingest_s",
        "ricd.incremental.region_edge_frac", "ricd.incremental.capacity_cps",
        "window.append_s", "window.materialize_s", "serve.ingest_call_s"],
    "serve_mixed": DETECT_LAYER + PUBLISH_LAYER + [
        "serve.inproc_query_s", "serve.query_p50_s", "serve.query_p90_s",
        "serve.tcp_query_s", "serve.tcp_ingest_s", "serve.server.requests"],
}


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dup = {k for k in keys if keys.count(k) > 1}
    if dup:
        raise ValueError("duplicate keys %s" % sorted(dup))
    return dict(pairs)


def check_run(spec, workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", "7", "--seconds", "3", "--trace",
               str(trace), "--scale", "tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    where = "%s --trace %d" % (workload, trace)
    if done.returncode != 0:
        return ["%s: exit %d\n%s" % (where, done.returncode,
                                     done.stderr[-2000:])]
    result = json.loads(done.stdout.strip().splitlines()[-1],
                        object_pairs_hook=no_duplicates)
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (where, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("%s: output checks failed" % where)
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("%s: attempted %r" % (where, result.get("attempted")))
    listed = [(m["name"], m["unit"])
              for m in spec["per_layer" if trace else "end_to_end"]]
    got = result.get("metrics", {})
    reported = [(name, m.get("unit") if isinstance(m, dict) else None)
                for name, m in got.items()]
    if reported != listed:
        errors.append("%s: metrics %s, BENCHMARK.json lists %s" %
                      (where, reported, listed))
    for name, metric in got.items():
        if not isinstance(metric, dict) or sorted(metric) != ["unit", "value"]:
            errors.append("%s: %s is %r" % (where, name, metric))
        elif (not isinstance(metric["value"], (int, float))
              or isinstance(metric["value"], bool)):
            errors.append("%s: %s value %r" % (where, name, metric["value"]))
        elif metric["value"] <= 0 and (
                not trace or name in MEASURED[workload]):
            errors.append("%s: %s reads %r" % (where, name, metric["value"]))
    if not trace and got.get("ok_frac", {}).get("value") != 1:
        errors.append("%s: ok_frac %r" % (where, got.get("ok_frac")))
    return errors


def check_fails_alone():
    """Only BENCHMARK.json and perfbench/: must fail without a result."""
    alone = os.path.join(ROOT, ".bench_build", "selftest-alone")
    shutil.rmtree(alone, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "offline_medium",
         "--seed", "1", "--seconds", "3", "--trace", "0"],
        cwd=alone, capture_output=True, text=True, timeout=180)
    shutil.rmtree(alone, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return ["benchmark without the library sources exited %d with %r" %
                (done.returncode, done.stdout[-200:])]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    workloads = [w["name"] for w in spec["workloads"]]
    if sorted(workloads) != sorted(MEASURED):
        errors.append("BENCHMARK.json workloads %s, selftest knows %s" %
                      (workloads, sorted(MEASURED)))
    layers = {m["name"] for m in spec["per_layer"]}
    for workload, names in MEASURED.items():
        if not set(names) <= layers:
            errors.append("%s measures unlisted %s" %
                          (workload, sorted(set(names) - layers)))
    for workload in workloads:
        for trace in (0, 1):
            errors += check_run(spec, workload, trace)
            print("%-15s trace=%d done" % (workload, trace), flush=True)
    errors += check_fails_alone()
    for error in errors:
        print("FAIL:", error)
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
