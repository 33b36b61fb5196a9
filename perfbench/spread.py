#!/usr/bin/env python3
"""Runs one workload on several seeds and prints each end-to-end metric's
spread: the distance between its first and third quartile as a share of
its median, next to the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload receive [--runs 10] [--first-seed 1]
        [--seconds S] [--log runs.txt]

Every run's full output is appended to --log, whose `record:` lines
perfbench/compare.py reads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from compare import quartiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--log")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    values = {}
    for seed in range(a.first_seed, a.first_seed + a.runs):
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
               a.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if a.log:
            with open(a.log, "a") as f:
                f.write(r.stdout)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-2000:] + r.stderr[-2000:])
            sys.exit(f"seed {seed}: exit {r.returncode}")
        result = json.loads(r.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    for m in bench["end_to_end"]:
        v = values.get(m["name"], [])
        if len(v) < 2:
            continue
        s = spread(v)
        flag = "ok" if s < m["bound"] / 3 else ("within bound" if s <= m["bound"] else "TOO WIDE")
        print(f"{a.workload:<9} {m['name']:<28} median {statistics.median(v):12.4f} "
              f"spread {s:6.3f} bound {m['bound']:.2f}  {flag}")


if __name__ == "__main__":
    main()
