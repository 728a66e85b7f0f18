#!/usr/bin/env python3
"""Builds the wall-clock benchmark and runs one workload.

Run from the repository root:

    python3 benchmark/run.py --workload batch-large --seed 1 \
        --seconds 15 --trace 0

The benchmark is built from source (benchmark/CMakeLists.txt, which pulls in
src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset. The binary's
own output ("name value unit" lines, checks, and with --trace 1 the per-layer
self-time table) is passed through; the last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) that BENCHMARK.json declares. The full result file is kept under
<build dir>/results/ for benchmark/compare.py; traced runs also keep their
Chrome trace under <build dir>/traces/. Exits non-zero, without the JSON
line, when the build or the run fails; exits 1 after it when a correctness
check failed.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build(build_root):
    """Configures (once) and builds the benchmark; returns the binary path."""
    build_dir = os.path.join(build_root, "harmony_benchmark")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "harmony_benchmark"])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                sys.exit("build timed out: " + " ".join(cmd))
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "harmony_benchmark")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    binary = build(build_root)

    stamp = "%s-s%d-t%d-%d-%d" % (args.workload, args.seed, args.trace,
                                  int(time.time()), os.getpid())
    workdir = os.path.join(build_root, "work", stamp)
    results = os.path.join(build_root, "results")
    traces = os.path.join(build_root, "traces")
    for d in (workdir, results, traces):
        os.makedirs(d, exist_ok=True)
    result_path = os.path.join(results, stamp + ".json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--result", result_path,
           "--workdir", os.path.relpath(workdir, ROOT)]
    if args.trace:
        cmd += ["--trace", os.path.join(traces, stamp + ".json")]
    sys.stdout.flush()
    try:
        # Relative socket paths keep unix-domain addresses short.
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("benchmark run timed out")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not os.path.exists(result_path):
        sys.exit("benchmark wrote no result (exit %d)" % done.returncode)

    with open(result_path) as f:
        result = json.load(f)
    metrics = result["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != declared_metrics(args.trace):
        sys.exit("metric set differs from BENCHMARK.json: %s" %
                 sorted(set(metrics) ^ declared_metrics(args.trace)))
    for name, m in metrics.items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            sys.exit("metric %s has no finite value" % name)
    correct = bool(result["correct"]) and done.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if done.returncode == 0 else 1)


if __name__ == "__main__":
    main()
