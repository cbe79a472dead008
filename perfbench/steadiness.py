#!/usr/bin/env python3
"""Steadiness report: two sets of runs of the same commit. From the root:

    python3 perfbench/steadiness.py

Each set runs every workload of BENCHMARK.json at seeds 1-10 for
run_seconds each, untraced, then once traced at seed 1. Every run's
end-to-end values are printed as it ends. For every end-to-end metric,
setup_s included, it then prints each set's median and quartiles, the
spread (q3 - q1) / median, and whether
  * the spread stays within the metric's bound and, as the target for a
    steady benchmark, within a third of it;
  * the two sets' medians differ by no more than the bound, in either
    direction.
It also checks that the exact per-layer counters agree between the two
traced runs. Exits 0 when every check passes.
"""

import json
import os
import statistics
import sys

sys.dont_write_bytecode = True
from run import ROOT, build, run_json  # noqa: E402

EXACT = ["core.events_per_op", "client.rr_full", "ckpt.writes_per_op", "ckpt.bytes_per_op"]
SEEDS = range(1, 11)


def run_once(binary, workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    status, result, stderr = run_json(binary, *args)
    if status != 0 or result is None or not result["correct"]:
        sys.exit(f"run failed or reported incorrect output ({' '.join(args)}):\n{stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    binary = build()

    sets = []
    for s in range(2):
        data = {}
        for w in workloads:
            runs = []
            for seed in SEEDS:
                runs.append(run_once(binary, w, seed, seconds, 0))
                print(f"set {s + 1} {w} seed {seed}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
            traced = run_once(binary, w, SEEDS[0], seconds, 1)
            data[w] = {"runs": runs, "traced": traced}
        sets.append(data)

    ok = True
    print()
    print(f"{'workload':18} {'metric':13} {'bound':>5}  {'set 1 median [q1, q3]':>30} "
          f"{'spread':>7}  {'set 2 median [q1, q3]':>30} {'spread':>7}  {'shift':>7}  verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols, spreads, medians = [], [], []
            for data in sets:
                q1, q2, q3 = statistics.quantiles([r[name] for r in data[w]["runs"]], n=4)
                spread = (q3 - q1) / q2 if q2 else 0.0
                spreads.append(spread)
                medians.append(q2)
                cols.append(f"{q2:12.5g} [{q1:.5g}, {q3:.5g}]".rjust(30) + f" {spread:7.1%}")
            m1, m2 = medians
            shift = (m2 - m1) / m1 if m1 else 0.0
            failed, notes = [], []
            if max(spreads) > bound:
                failed.append("SPREAD>BOUND")
            elif max(spreads) > bound / 3:
                notes.append("spread>bound/3")
            if abs(shift) > bound:
                failed.append("SHIFT>BOUND")
            ok &= not failed
            print(f"{w:18} {name:13} {bound:5.2f}  {cols[0]}  {cols[1]}  {shift:+7.1%}  "
                  + (" ".join(failed + notes) or "agree"))
        a, b = (data[w]["traced"] for data in sets)
        same = all(a[k] == b[k] for k in EXACT)
        ok &= same
        print(f"{w:18} exact counters {'identical' if same else 'DIFFER'} across sets: "
              + ", ".join(f"{k}={a[k]:g}" for k in EXACT if a[k]))
    print("\nthe two sets agree within the bounds" if ok else "\nthe two sets DO NOT agree")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
