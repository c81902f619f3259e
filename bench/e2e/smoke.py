#!/usr/bin/env python3
"""ctest leg bench_e2e_smoke: every workload, untraced and traced, in
--smoke mode (scale 0.25, a second of load). Checks that each run exits 0
with no failed operation, that the last stdout line is the result object,
that its metric names and units equal the ones BENCHMARK.json lists, and
that each traced run writes a loadable Chrome trace.

    python3 smoke.py <path to ocb_bench> <path to BENCHMARK.json>
"""
import json
import os
import subprocess
import sys


def check(ok, what):
    if not ok:
        sys.exit("bench_e2e_smoke: " + what)


def run(bench, workload, trace, trace_file):
    cmd = [bench, "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--smoke", "--trace-file", trace_file]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
    check(proc.returncode == 0, "%s exited %d" % (cmd, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          "result keys %s" % sorted(result))
    check(result["correct"] is True and result["failed"] == 0,
          "%s trace=%d failed: %s" % (workload, trace, result))
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          "attempted %r" % result["attempted"])
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main():
    bench, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    traces = os.path.join(os.path.dirname(os.path.abspath(bench)), "traces")
    os.makedirs(traces, exist_ok=True)
    for w in spec["workloads"]:
        trace_file = os.path.join(traces, "smoke-%s.json" % w["name"])
        for trace in (0, 1):
            got = run(bench, w["name"], trace, trace_file)
            check(got == want[trace], "%s trace=%d: metrics differ: %s" % (
                w["name"], trace, sorted(set(got.items()) ^ set(want[trace].items()))))
        with open(trace_file) as f:
            check(len(json.load(f)["traceEvents"]) > 0, "empty " + trace_file)
        print("ok %s (%d + %d metrics)" % (w["name"], len(want[0]), len(want[1])))


if __name__ == "__main__":
    main()
