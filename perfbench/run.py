#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Cargo's build output goes to standard error; standard output carries only
the benchmark's report, whose last line is the JSON result. The build
directory is $CARGO_TARGET_DIR, `.bench_build` by default. README.md
describes the workloads and metrics.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Build the benchmark (release) and return the path of its binary.

    Exits with cargo's status if the build fails, e.g. when the
    repository's crates are not beside this directory.
    """
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    status = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode
    if status != 0:
        print(f"perfbench: build failed with status {status}", file=sys.stderr)
        sys.exit(status)
    return os.path.join(ROOT, target, "release", "bce-perfbench")


def run_json(binary, *args):
    """Run the built benchmark from the root: (exit status, the parsed
    last line of standard output or None, standard error)."""
    p = subprocess.run([binary, *args], cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p.returncode, result, p.stderr


def main():
    binary = build()
    os.chdir(ROOT)
    sys.stdout.flush()
    # Replace this process, so the benchmark is the only process left and
    # its exit status is this command's.
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
