#!/usr/bin/env python3
"""Smoke test of one workload: its checks pass and its metric set is declared.

    check_metrics.py <harmony_benchmark> <BENCHMARK.json> <workload> <trace>

Runs the binary with --smoke (traced when <trace> is 1). Passes when the run
exits 0, the printed "name value unit" lines name exactly the metrics
BENCHMARK.json declares for that mode (end-to-end; plus per-layer when
traced) with the declared units and finite values, the result file agrees,
and a traced run wrote a Chrome trace with events.
"""

import json
import math
import os
import subprocess
import sys
import tempfile


def fail(msg):
    sys.exit("FAIL: " + msg)


def main():
    binary, spec_path, workload, trace = sys.argv[1:5]
    traced = trace == "1"
    with open(spec_path) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = dict(e2e, **layer) if traced else e2e

    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        result_path = os.path.join(tmp, "result.json")
        trace_path = os.path.join(tmp, "trace.json")
        cmd = [binary, "--workload", workload, "--seed", "1", "--smoke",
               "--result", result_path, "--workdir", os.path.relpath(tmp)]
        if traced:
            cmd += ["--trace", trace_path]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=55)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            fail("exit code %d" % done.returncode)

        printed = {}
        for line in done.stdout.splitlines():
            parts = line.split()
            if line.startswith("#") or len(parts) != 3:
                continue
            name, value, unit = parts
            if name in printed:
                fail("metric %s printed twice" % name)
            printed[name] = (float(value), unit)
        if set(printed) != set(expected):
            fail("printed metrics differ from BENCHMARK.json: %s" %
                 sorted(set(printed) ^ set(expected)))
        for name, (value, unit) in printed.items():
            if unit != expected[name]:
                fail("%s printed in %s, declared in %s" %
                     (name, unit, expected[name]))
            if not math.isfinite(value):
                fail("%s is not finite" % name)

        with open(result_path) as f:
            result = json.load(f)
        if not result["correct"] or result["attempted"] < 1:
            fail("result not correct")
        if set(result["end_to_end"]) != set(e2e):
            fail("result end_to_end set differs")
        if traced:
            if set(result["per_layer"]) != set(layer):
                fail("result per_layer set differs")
            with open(trace_path) as f:
                events = json.load(f)["traceEvents"]
            if not events:
                fail("trace has no events")
    print("PASS %s trace=%s: %d metrics" % (workload, trace, len(printed)))


if __name__ == "__main__":
    main()
