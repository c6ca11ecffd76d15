#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of the repository. The benchmark is a Cargo package of
its own (perfbench/Cargo.toml) with path dependencies on the workspace
crates; it is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`). Sockets and span files go to `<target dir>/perfbench`.
Standard output is the benchmark binary's: its last line is the JSON result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: the benchmark did not build", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "lv-perfbench")
    scratch = os.path.join(target, "perfbench")
    os.makedirs(scratch, exist_ok=True)
    # Unix socket paths are limited to about 100 bytes: prefer the relative
    # form of the scratch directory when it is shorter.
    relative = os.path.relpath(scratch)
    if len(relative) < len(scratch):
        scratch = relative
    return subprocess.run([binary, *sys.argv[1:], "--scratch", scratch]).returncode


if __name__ == "__main__":
    sys.exit(main())
