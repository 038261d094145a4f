#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload campaign-llm4fp|paper-table2|pool-rundir \
        [--seed N] [--seconds S] [--trace 0|1]

Builds the `perfbench` binary and the `llm4fp-worker` daemon that the
process-pool and remote executors spawn (release profile, offline) into
$CARGO_TARGET_DIR, or `.bench_build` when unset. Then runs `perfbench`
from the repository root with the given arguments and exits with its
status. Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml"),
        "-p", "llm4fp-perfbench", "-p", "llm4fp-orchestrator", "--bins",
    ]
    if subprocess.run(build, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:]], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
