#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload replay --seed 1 --seconds 10 --trace 0

The benchmark package (perfbench/Cargo.toml) builds against the
repository's crates by path, into $CARGO_TARGET_DIR (default
.bench_build). Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    # Run on one CPU. On a small shared VM, a wake-up on another CPU
    # waits for the host to reschedule that CPU, and how long that takes
    # swings with other tenants' load. On one CPU, the client, server and
    # pipeline threads hand over by local context switches. Parallel
    # speed-up is therefore not measured.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
