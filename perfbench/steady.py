#!/usr/bin/env python3
"""Steadiness helper: run one workload k times and summarise each metric.

    python3 perfbench/steady.py --workload chirp-write --runs 10 \
        [--seed0 1] [--trace 0] [--against ../parent-checkout]

Run from the root of a checkout.  Run i uses seed seed0 + i.  For each
metric it prints the median, the quartiles (statistics.quantiles, n=4),
the quartile spread as a share of the median, and the max/min ratio,
and flags end-to-end metrics whose spread exceeds a third of their
bound in BENCHMARK.json.

With --against DIR the same seeds also run in the checkout DIR, and
the two sides alternate which runs first in each pair, so a change and
its parent are measured under the same conditions; both summaries are
printed, then the change between medians as a share of DIR's median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"run failed in {root} (seed {seed}):\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
    return json.loads(lines[-1])["metrics"]


def summarise(label, runs, bounds):
    print(f"== {label}: {len(runs)} runs")
    print(f"{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'max/min':>8}")
    for name in runs[0]:
        vals = [r[name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        lo, hi = min(vals), max(vals)
        ratio = hi / lo if lo else float("inf") if hi else 1.0
        flag = ""
        if name in bounds and name != "setup_s" and spread > bounds[name] / 3:
            flag = f"  > bound/3 ({bounds[name]})"
        print(f"{name:36} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {ratio:8.4f}{flag}")
    return {name: statistics.median([r[name]["value"] for r in runs]) for name in runs[0]}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--against", default=None)
    a = p.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = a.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    here = os.getcwd()
    mine, theirs = [], []
    for i in range(a.runs):
        seed = a.seed0 + i
        if a.against is None:
            mine.append(run_once(here, a.workload, seed, seconds, a.trace))
            continue
        order = [(here, mine), (a.against, theirs)]
        if i % 2:
            order.reverse()
        for root, acc in order:
            acc.append(run_once(root, a.workload, seed, seconds, a.trace))
    med = summarise(f"{a.workload} (this checkout)", mine, bounds)
    if a.against is not None:
        base = summarise(f"{a.workload} ({a.against})", theirs, bounds)
        print("== change in median, share of the other checkout's median")
        for name, v in med.items():
            b = base[name]
            print(f"{name:36} {((v - b) / b if b else 0.0):+8.4f}")


if __name__ == "__main__":
    main()
