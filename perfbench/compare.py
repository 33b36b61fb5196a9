#!/usr/bin/env python3
"""Compares two commits' benchmark runs, one row per workload x end-to-end
metric.

    python3 perfbench/compare.py PARENT_LOG CHANGE_LOG [--bench BENCHMARK.json]

Each log holds the stdout of any number of runs (perfbench/spread.py
--log writes one); the `record:` lines carry the results. Runs of the
two sides pair up by workload and seed. Each row gives both sides'
median and quartiles, the share of pairs the change won (ties count for
neither side), and a verdict:

- improved: the change won at least nine tenths of the pairs and its
  median beats the parent's by more than the parent's own quartile
  spread; or, where the spread is wider than the bound, every change run
  beats every parent run;
- unresolved: either side's quartile spread, as a share of its median,
  is wider than the metric's bound (and not every change run is better);
- worse: the change's median is worse than the parent's by more than
  the bound;
- within bound: anything else.
"""

import argparse
import json
import os
import statistics
import sys

RECORD = "record: "


def load(path):
    """{(workload, seed): metrics} from a log's record lines."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.startswith(RECORD):
                r = json.loads(line[len(RECORD):])
                if r.get("trace", 0) == 0:
                    runs[(r["workload"], r["seed"])] = {
                        k: v["value"] for k, v in r["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, bound, lower_is_better):
    """Verdict, change share won, and each side's (q1, median, q3)."""
    better = (lambda b, a: b < a) if lower_is_better else (lambda b, a: b > a)
    qa, qb = quartiles(parent), quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(1 for a, b in pairs if better(b, a)) / len(pairs) if pairs else 0.0
    spread = max((qa[2] - qa[0]) / abs(qa[1]) if qa[1] else float("inf"),
                 (qb[2] - qb[0]) / abs(qb[1]) if qb[1] else float("inf"))
    every_better = all(better(b, a) for a in parent for b in change)
    gain = (qa[1] - qb[1]) if lower_is_better else (qb[1] - qa[1])
    if spread > bound:
        v = "improved" if every_better else "unresolved"
    elif won >= 0.9 and gain > qa[2] - qa[0]:
        v = "improved"
    elif -gain > bound * abs(qa[1]):
        v = "worse"
    else:
        v = "within bound"
    return v, won, qa, qb


def compare(parent_runs, change_runs, bench):
    rows = []
    workloads = [w["name"] for w in bench["workloads"]]
    for w in workloads:
        seeds = sorted(s for (wl, s) in parent_runs if wl == w and (wl, s) in change_runs)
        if not seeds:
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            a = [parent_runs[(w, s)][name] for s in seeds if name in parent_runs[(w, s)]]
            b = [change_runs[(w, s)][name] for s in seeds if name in change_runs[(w, s)]]
            if not a or len(a) != len(b):
                continue
            v, won, qa, qb = verdict(a, b, m["bound"], m["better"] == "lower")
            rows.append((w, name, m["unit"], len(a), qa, qb, won, v))
    return rows


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser()
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--bench", default=os.path.join(os.path.dirname(here), "BENCHMARK.json"))
    a = ap.parse_args()
    with open(a.bench) as f:
        bench = json.load(f)
    rows = compare(load(a.parent), load(a.change), bench)
    if not rows:
        sys.exit("no workload has runs on the same seeds in both logs")
    print(f"{'workload':<9} {'metric':<27} {'n':>3} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'won':>5}  verdict")
    for w, name, unit, n, qa, qb, won, v in rows:
        side = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {unit}"
        print(f"{w:<9} {name:<27} {n:>3} {side(qa):>34} {side(qb):>34} {won:>5.0%}  {v}")


if __name__ == "__main__":
    main()
