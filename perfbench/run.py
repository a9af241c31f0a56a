#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload box-read|chirp-read|chirp-write \
        --seed N --seconds S --trace 0|1 [--smoke]

Builds perfbench/bench.exe with dune (shared cache off, so the build
reads and writes only inside the checkout), then runs it with the same
arguments.  The benchmark's own last line of stdout is the result; a
failed build exits non-zero without printing one.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
