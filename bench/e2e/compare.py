#!/usr/bin/env python3
"""Compare two sets of ocb_bench results against the bounds in BENCHMARK.json.

    python3 bench/e2e/compare.py --base base/*.json --new new/*.json \
        [--claim latency_ms_p50@frame_s025]

A result file holds one record written by `ocb_bench --out FILE`, or a
JSON list of them (as results/seed.json does). Prints one row per
(metric, workload) with each side's median and quartiles and a verdict:

  ok          the new median is within the metric's bound of the base
  regressed   worse than the bound, or every new run worse than every base run
  improved    the spread exceeds the bound but every new run beats every base run
  unresolved  the spread (quartile distance / median) of either side
              exceeds the bound and the runs overlap
  -           per-layer metric: no bound, reported only

--claim metric@workload applies the gain rule: the new side wins at least
9/10 of the pairs (runs paired in file order, ties count for neither) and
the medians differ by more than the base side's quartile distance.
Exits 1 when any end-to-end row regressed or is unresolved, or a claim
is not met.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(paths):
    """{(metric, workload): [values in file order]} plus the metric units."""
    values, units = {}, {}
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        for record in data if isinstance(data, list) else [data]:
            workload = record["conditions"]["workload"]
            for name, m in record["result"]["metrics"].items():
                values.setdefault((name, workload), []).append(m["value"])
                units[name] = m["unit"]
    return values, units


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def verdict(a, b, lower_better, bound):
    if bound is None:
        return "-"
    beats = (lambda x, y: x < y) if lower_better else (lambda x, y: x > y)
    if all(beats(y, x) for x in a for y in b):
        return "improved"
    if all(beats(x, y) for x in a for y in b):
        return "regressed"
    spread = max((q3 - q1) / med for q1, med, q3 in (quartiles(a), quartiles(b)))
    if spread > bound:
        return "unresolved"
    ma, mb = statistics.median(a), statistics.median(b)
    worse = (mb - ma) / ma if lower_better else (ma - mb) / ma
    return "regressed" if worse > bound else "ok"


def claim_met(a, b, lower_better):
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if (y < x if lower_better else y > x))
    q1, ma, q3 = quartiles(a)
    gap = abs(statistics.median(b) - ma)
    return wins >= 0.9 * len(pairs) and gap > q3 - q1, wins, len(pairs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    ap.add_argument("--claim", action="append", default=[],
                    help="metric@workload the new side claims to improve")
    ap.add_argument("--benchmark",
                    default=os.path.join(HERE, "..", "..", "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    meta = {m["name"]: (m["better"] == "lower", m.get("bound"))
            for m in spec["end_to_end"] + spec["per_layer"]}
    base, units = load(args.base)
    new, _ = load(args.new)

    failed = False
    print("%-34s %-13s %8s %26s %26s  %s" % (
        "metric", "workload", "unit", "base q1/median/q3", "new q1/median/q3",
        "verdict"))
    for key in sorted(set(base) & set(new), key=lambda k: (k[1], k[0])):
        name, workload = key
        lower_better, bound = meta.get(name, (True, None))
        v = verdict(base[key], new[key], lower_better, bound)
        failed |= v in ("regressed", "unresolved")
        fmt = lambda q: "%.4g/%.4g/%.4g" % q
        print("%-34s %-13s %8s %26s %26s  %s" % (
            name, workload, units.get(name, ""), fmt(quartiles(base[key])),
            fmt(quartiles(new[key])), v))
    for claim in args.claim:
        name, _, workload = claim.partition("@")
        if (name, workload) not in base or (name, workload) not in new:
            sys.exit("compare.py: no results for claim %s" % claim)
        met, wins, pairs = claim_met(base[(name, workload)],
                                     new[(name, workload)],
                                     meta.get(name, (True, None))[0])
        print("claim %s: %s (new wins %d of %d pairs)" % (
            claim, "met" if met else "not met", wins, pairs))
        failed |= not met
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
