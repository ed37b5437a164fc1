#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload live-write --seed 1 --seconds 30 --trace 0

The arguments go to the benchmark binary unchanged (see README.md beside
this file). The build uses CARGO_TARGET_DIR when it is set and
`.bench_build` at the repository root otherwise; cargo runs offline, since
every dependency is a path inside the repository. Build output goes to
standard error, so the benchmark's result object stays the last line of
standard output. The exit code is the build's when the build fails, else the
benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--locked",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    return subprocess.run([binary, *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
