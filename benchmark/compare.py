#!/usr/bin/env python3
"""Compares two run.py results files: the parent commit (A) against a change (B).

    python3 benchmark/compare.py A/results.json B/results.json

One row per (metric, workload) for every metric BENCHMARK.json names, with
each side's median and quartiles, the change of the median, the pairs B won
(repeat i of A against repeat i of B; ties count for neither side) and a
verdict:

  virtual metrics (the modelled system; exact and repeatable):
      unchanged when both medians are identical, otherwise better or worse.
  host metrics (the simulator's own time and memory):
      better      at least 10 pairs, B wins at least 9 in 10 of them, and the
                  medians differ by more than A's interquartile distance;
      worse       B's median is worse than A's by more than the metric's bound;
      unresolved  either side's spread (interquartile distance over median)
                  is wider than the bound, unless every run of B is better
                  than every run of A;
      unchanged   otherwise.
  Per-layer metrics have no bound: they are better or worse only by the
  pair rule (mirrored for worse), otherwise unresolved.

Exits 1 if any end-to-end row is worse.
"""

import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a, b, clock, higher_is_better, bound):
    sign = 1.0 if higher_is_better else -1.0
    qa, qb = quartiles(a), quartiles(b)
    gain = sign * (qb[1] - qa[1])  # > 0: B's median is better
    if clock == "virtual":
        return "unchanged" if gain == 0 else ("better" if gain > 0 else "worse")
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    iqr_a = qa[2] - qa[0]
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > iqr_a:
        return "better"
    if bound is None:
        if len(pairs) >= MIN_PAIRS and losses >= WIN_SHARE * len(pairs) and -gain > iqr_a:
            return "worse"
        return "unresolved"
    if -gain > bound * abs(qa[1]):
        return "worse"
    spread = max((qa[2] - qa[0]) / abs(qa[1]) if qa[1] else 0.0,
                 (qb[2] - qb[0]) / abs(qb[1]) if qb[1] else 0.0)
    b_beats_all = min(sign * y for y in b) > max(sign * x for x in a)
    if spread > bound and not b_beats_all:
        return "unresolved"
    return "unchanged"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        parent = json.load(f)
    with open(sys.argv[2]) as f:
        change = json.load(f)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)

    print("A: %s (seed %s, %s repeats)" % (sys.argv[1], parent["seed"], parent["repeats"]))
    print("B: %s (seed %s, %s repeats)" % (sys.argv[2], change["seed"], change["repeats"]))
    print("%-28s %-13s %-7s %26s %26s %9s %7s  %s" % (
        "metric", "workload", "clock", "A median [q1, q3]", "B median [q1, q3]", "change",
        "B won", "verdict"))
    regressions = 0
    for section in ("end_to_end", "per_layer"):
        for spec in bench[section]:
            for w in sorted(set(parent["workloads"]) & set(change["workloads"])):
                a = parent["workloads"][w]["metrics"].get(spec["name"])
                b = change["workloads"][w]["metrics"].get(spec["name"])
                if a is None or b is None:
                    print("%-28s %-13s missing on %s" % (spec["name"], w, "A" if a is None else "B"))
                    continue
                qa, qb = quartiles(a["values"]), quartiles(b["values"])
                sign = 1.0 if spec["better"] == "higher" else -1.0
                pairs = list(zip(a["values"], b["values"]))
                wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
                v = verdict(a["values"], b["values"], a["clock"], spec["better"] == "higher",
                            spec.get("bound"))
                if v == "worse" and section == "end_to_end":
                    regressions += 1
                change_pct = 100.0 * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
                print("%-28s %-13s %-7s %26s %26s %8.2f%% %7s  %s" % (
                    spec["name"], w, a["clock"],
                    "%.5g [%.5g, %.5g]" % (qa[1], qa[0], qa[2]),
                    "%.5g [%.5g, %.5g]" % (qb[1], qb[0], qb[2]),
                    change_pct, "%d/%d" % (wins, len(pairs)), v))
    print("%d end-to-end regression(s)" % regressions)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
