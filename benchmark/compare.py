#!/usr/bin/env python3
"""Compares two sets of benchmark results, one row per (workload, metric).

    python3 benchmark/compare.py BASE HEAD [--same-commit] [--layers]

BASE and HEAD are result files, or directories of them, as benchmark/run.py
leaves under <build dir>/results/ (move them aside per commit). Untraced
results feed the end-to-end rows; traced results feed --layers. Smoke
results are ignored. Runs pair up by seed, in run order.

Verdicts, against the bounds in BENCHMARK.json:
  improved    >= 10 pairs; HEAD better in >= 9/10 of all pairs (ties count
              for neither); the median gap exceeds BASE's interquartile
              range; HEAD fails no larger share of its operations
  worse       HEAD's median is worse than BASE's by more than the bound
  unresolved  either side's spread (IQR / median) exceeds the bound, and
              not every HEAD run reads better than every BASE run
  unchanged   otherwise
A "failed_share" row per workload compares failed / attempted.

--same-commit treats BASE and HEAD as repeats of one commit: each row must
show medians within the bound and, except for setup_s, a bound at least
twice either side's IQR / median ("agree"); anything else fails the repeat
check. The exit
code is 1 when any row is worse, disagrees, or a run was incorrect.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path, traced):
    """Result dicts (with their mtimes) per workload, oldest first."""
    files = (sorted(glob.glob(os.path.join(path, "*.json")))
             if os.path.isdir(path) else [path])
    runs = {}
    for path in files:
        with open(path) as f:
            r = json.load(f)
        if r.get("smoke") or bool(r.get("traced")) != traced:
            continue
        r["_mtime"] = os.path.getmtime(path)
        runs.setdefault(r["workload"], []).append(r)
    for rs in runs.values():
        rs.sort(key=lambda r: r["_mtime"])
    return runs


def pairs(base, head):
    """(base, head) runs with equal seeds, matched in run order."""
    by_seed = {}
    for r in head:
        by_seed.setdefault(r["seed"], []).append(r)
    out = []
    for r in base:
        if by_seed.get(r["seed"]):
            out.append((r, by_seed[r["seed"]].pop(0)))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(metric, base, head, run_pairs, base_fail, head_fail):
    higher = metric["better"] == "higher"
    better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
    bm, hm = statistics.median(base), statistics.median(head)
    bq1, bq3 = quartiles(base)
    wins = sum(1 for b, h in run_pairs if better(h, b))
    worse_by = (bm - hm if higher else hm - bm) / abs(bm) if bm else 0.0
    if (len(run_pairs) >= 10 and wins >= 0.9 * len(run_pairs)
            and better(hm, bm) and abs(hm - bm) > bq3 - bq1
            and head_fail <= base_fail):
        return "improved", wins
    if worse_by > metric["bound"]:
        return "worse", wins
    all_better = all(better(h, b) for h in head for b in base)
    if max(spread(base), spread(head)) > metric["bound"] and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def fail_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--same-commit", action="store_true")
    parser.add_argument("--layers", action="store_true",
                        help="also print per-layer medians of traced runs")
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)

    base_runs = load(args.base, traced=False)
    head_runs = load(args.head, traced=False)
    bad = False
    fmt = "%-13s %-16s %12s %-21s %12s %-21s %8s %6s  %s"
    print(fmt % ("workload", "metric", "base", "base q1..q3", "head",
                 "head q1..q3", "delta", "wins", "verdict"))
    for workload in sorted(set(base_runs) | set(head_runs)):
        base, head = base_runs.get(workload, []), head_runs.get(workload, [])
        if not base or not head:
            print("%-13s missing on one side" % workload)
            bad = True
            continue
        for r in base + head:
            if not r["correct"]:
                print("%-13s incorrect run: seed %s" % (workload, r["seed"]))
                bad = True
        run_pairs_all = pairs(base, head)
        first = sum(1 for b, h in run_pairs_all if b["_mtime"] < h["_mtime"])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["end_to_end"][name]["value"] for r in base]
            h = [r["end_to_end"][name]["value"] for r in head]
            run_pairs = [(p["end_to_end"][name]["value"],
                          q["end_to_end"][name]["value"])
                         for p, q in run_pairs_all]
            bm, hm = statistics.median(b), statistics.median(h)
            if args.same_commit:
                # Set-up time only has to repeat in its median: its spread
                # is not held to the bound.
                ok = (abs(hm - bm) <= metric["bound"] * abs(bm)
                      and (name == "setup_s" or
                           2 * max(spread(b), spread(h)) <= metric["bound"]))
                v, wins = ("agree" if ok else "disagree"), None
            else:
                v, wins = verdict(metric, b, h, run_pairs, fail_share(base),
                                  fail_share(head))
            bad |= v in ("worse", "disagree")
            bq, hq = quartiles(b), quartiles(h)
            won = "-" if wins is None else "%d/%d" % (wins, len(run_pairs))
            print(fmt % (workload, name, "%.6g" % bm,
                         "%.6g..%.6g" % bq, "%.6g" % hm, "%.6g..%.6g" % hq,
                         "%+.2f%%" % (100 * (hm - bm) / bm if bm else 0.0),
                         won, v))
        bf, hf = fail_share(base), fail_share(head)
        v = "worse" if hf > bf else "unchanged"
        bad |= v == "worse"
        print(fmt % (workload, "failed_share", "%.3g" % bf, "", "%.3g" % hf,
                     "", "", "", v))
        print("%-13s base ran first in %d of %d pairs" %
              (workload, first, len(run_pairs_all)))

    if args.layers:
        base_t = load(args.base, traced=True)
        head_t = load(args.head, traced=True)
        print()
        for workload in sorted(set(base_t) & set(head_t)):
            for metric in spec["per_layer"]:
                name = metric["name"]
                b = [r["per_layer"][name]["value"] for r in base_t[workload]]
                h = [r["per_layer"][name]["value"] for r in head_t[workload]]
                bm, hm = statistics.median(b), statistics.median(h)
                print("%-13s %-30s %12.6g %12.6g %+8.2f%% (%s better)" %
                      (workload, name, bm, hm,
                       100 * (hm - bm) / bm if bm else 0.0, metric["better"]))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
