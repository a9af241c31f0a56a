#!/usr/bin/env python3
"""Smoke test for the benchmark: every workload at a tiny size, in seconds.

    python3 perfbench/smoke.py

Run from the root of a checkout.  For each workload it runs the
untraced and the traced mode with --smoke and asserts that the run is
correct and prints exactly the metric names BENCHMARK.json lists for
that mode, each with its declared unit.  Exits 1 on the first mismatch.
"""

import json
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    modes = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for w in spec["workloads"]:
        for trace, declared in modes.items():
            cmd = [sys.executable, "perfbench/run.py", "--workload", w["name"], "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"FAIL {w['name']} trace={trace}: exit {out.returncode}\n{out.stdout[-1500:]}{out.stderr[-1500:]}")
                return 1
            result = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in declared}
            got = {n: v["unit"] for n, v in result["metrics"].items()}
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                print(f"FAIL {w['name']} trace={trace}: result not correct: {lines[-1][:300]}")
                return 1
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
                print(f"FAIL {w['name']} trace={trace}: missing {missing} extra {extra} wrong units {units}")
                return 1
            print(f"ok   {w['name']} trace={trace}: {len(got)} metrics, {result['attempted']} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
