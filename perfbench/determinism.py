#!/usr/bin/env python3
"""Self-check: two traced runs on one seed reproduce every deterministic
work counter exactly.

Run from the root of a checkout, after one build (perfbench/run.py):

    python3 perfbench/determinism.py [--seed 7] [--seconds 10] [workload ...]

The benchmark marks each deterministic counter's line with a trailing
`det`. Exits 1 when any such counter differs between the two runs, or
when a run reports incorrect output.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ["replay", "replay-2w", "live-watch", "console"]


def traced(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not json.loads(lines[-1])["correct"]:
        sys.exit(f"{workload}: incorrect output\n{proc.stderr}")
    counters = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[3] == "det":
            counters[parts[0]] = parts[1]
    return counters


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    bad = 0
    for w in args.workloads:
        a = traced(w, args.seed, args.seconds)
        b = traced(w, args.seed, args.seconds)
        diff = sorted(k for k in a if a[k] != b.get(k))
        for k in diff:
            print(f"{w}: {k} {a[k]} != {b.get(k)}")
        print(f"{w}: {len(a) - len(diff)} of {len(a)} deterministic counters repeat exactly")
        bad += len(diff)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
