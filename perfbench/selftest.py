#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Checks, in about a minute:
  * a tiny untraced run of every workload prints every end-to-end metric
    of BENCHMARK.json with its unit, and success_frac is 1.0;
  * two tiny traced runs of every workload print every per-layer metric
    with its unit, and the exact counters repeat between them;
  * a corrupted golden digest drives success_frac to 0 (the check can
    fail), and a golden file without the workload's line fails the run;
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, the benchmark exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
from run import HERE, ROOT, build, run_json  # noqa: E402

EXACT = [
    "core.events_per_op", "client.rr_queries", "client.rr_full", "client.rr_frozen",
    "client.peak_jobs", "ckpt.writes_per_op", "ckpt.bytes_per_op",
]

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(binary, *args):
    status, result, stderr = run_json(binary, *args)
    if status != 0:
        sys.stderr.write(stderr)
    return status, result


def has_metrics(result, spec):
    metrics = result["metrics"]
    return set(metrics) == {m["name"] for m in spec} and all(
        metrics[m["name"]]["unit"] == m["unit"] for m in spec)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = build()
    workloads = [w["name"] for w in bench["workloads"]]
    tmp = os.path.join(ROOT, ".bench_tmp", f"selftest-{os.getpid()}")
    os.makedirs(tmp)
    try:
        for w in workloads:
            status, r = run(binary, "--workload", w, "--seed", "1", "--seconds", "1", "--trace", "0")
            check(status == 0 and r is not None and has_metrics(r, bench["end_to_end"]),
                  f"{w}: untraced run prints every end-to-end metric with its unit")
            check(r is not None and r["correct"] and r["attempted"] >= 1
                  and r["metrics"]["success_frac"]["value"] == 1.0,
                  f"{w}: success_frac is 1.0")

            traced = [run(binary, "--workload", w, "--seed", "2", "--seconds", "1", "--trace", "1")
                      for _ in range(2)]
            check(all(s == 0 and r is not None and has_metrics(r, bench["per_layer"])
                      and r["correct"] for s, r in traced),
                  f"{w}: traced runs print every per-layer metric with its unit")
            if all(r is not None for _, r in traced):
                a, b = (r["metrics"] for _, r in traced)
                check(all(a[k]["value"] == b[k]["value"] for k in EXACT),
                      f"{w}: exact counters repeat between traced runs")

        bad = os.path.join(tmp, "goldens.txt")
        with open(os.path.join(HERE, "goldens.txt")) as src, open(bad, "w") as dst:
            for line in src:
                if line.strip() and not line.startswith("#"):
                    name, digest = line.split()
                    line = f"{name} {int(digest, 16) ^ 1:016x}\n"
                dst.write(line)
        status, r = run(binary, "--workload", "paper_s4", "--seed", "1", "--seconds", "1",
                        "--trace", "0", "--goldens", bad)
        check(status != 0 and r is not None and not r["correct"]
              and r["metrics"]["success_frac"]["value"] == 0.0,
              "a corrupted golden drives success_frac to 0")

        missing = os.path.join(tmp, "no_paper_s4.txt")
        with open(os.path.join(HERE, "goldens.txt")) as src, open(missing, "w") as dst:
            dst.writelines(line for line in src if not line.startswith("paper_s4 "))
        status, r = run(binary, "--workload", "paper_s4", "--seed", "1", "--seconds", "1",
                        "--trace", "0", "--goldens", missing)
        check(status != 0 and r is None, "a workload without a golden line fails without a result")

        bare = os.path.join(tmp, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
        p = subprocess.run([sys.executable, *bench["command"][1:], "--workload", "paper_s4",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare, env=env, capture_output=True, text=True, timeout=180)
        check(p.returncode != 0 and '"correct"' not in p.stdout,
              "without the repository's crates the benchmark fails without a result")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_tmp"))
        except OSError:
            pass
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
