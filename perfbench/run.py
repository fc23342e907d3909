#!/usr/bin/env python3
"""Builds the benchmark package and runs one benchmark run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve-light --seed 1 --seconds 15 --trace 0

Cargo builds into $CARGO_TARGET_DIR (default `.bench_build` in the working
directory); its output goes to stderr, so the run's last line of stdout is
the result object. The run itself replaces this process.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        sys.exit(build.returncode or 1)
    exe = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    os.execve(exe, [exe] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
