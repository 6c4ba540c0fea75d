#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload xmark-warm --seed 1 --seconds 8 --trace 0

The binary is built with cargo (release profile, offline) into
$CARGO_TARGET_DIR, or perfbench/target when that is unset; build output goes
to standard error. The binary's own standard output is passed through: its
last line is the JSON result. Exits non-zero, printing no result, when the
build fails or the binary does not finish in time.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        built = subprocess.run(build, stdout=sys.stderr, env=env).returncode == 0
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        built = False
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out_dir = os.path.join(target, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    exe = os.path.join(target, "release", "perfbench")
    try:
        return subprocess.run([exe, *sys.argv[1:], "--out-dir", out_dir], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
