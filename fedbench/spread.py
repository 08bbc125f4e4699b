#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 fedbench/spread.py --workload paper_sync --seeds 1-10

Runs fedbench/run.py once per seed (one process at a time, with
BENCHMARK.json's run_seconds) and prints, per metric, the median, the
quartiles as statistics.quantiles(values, n=4) gives them, and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json. Exits 1
when any run fails or reports incorrect output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=seeds)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    ok = True
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(bench["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()))

    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None else (
            "  ok" if spread <= bound / 3 else
            "  WITHIN BOUND" if spread <= bound else "  OVER BOUND")
        print(f"{name:24s} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.4f}  bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
