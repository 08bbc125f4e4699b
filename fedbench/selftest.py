#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 fedbench/selftest.py

Checks that
  * every metric name matches [A-Za-z0-9_.-]+ (and starts with a letter or
    digit);
  * BENCHMARK.json lists exactly the binary's metric registry, with the
    same units;
  * every workload, traced and untraced, emits every metric BENCHMARK.json
    lists for that kind, with its unit, in a well-formed, correct result;
  * the binary's own checks pass: the nearest-rank percentile rule, and on
    short configs the same seed gives the same committed-model digest,
    final_reward and wire bytes (fedbench --selftest).
Exits 1 on the first failure.
"""
import json
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True  # keep fedbench/ free of __pycache__
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (fedbench/run.py: build + paths)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def fail(message):
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def main():
    binary = run.build()
    if binary is None:
        fail("build")
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    registry = {"end_to_end": {}, "per_layer": {}}
    listing = subprocess.run([binary, "--list-metrics"], capture_output=True,
                             text=True, check=True).stdout
    for line in listing.splitlines():
        kind, name, unit = line.split()
        registry[kind][name] = unit
    for kind in ("end_to_end", "per_layer"):
        listed = {m["name"]: m["unit"] for m in bench[kind]}
        for name in listed:
            if not NAME.match(name):
                fail(f"metric name {name!r}")
        if listed != registry[kind]:
            fail(f"BENCHMARK.json {kind} differs from the binary's registry: "
                 f"{sorted(set(listed.items()) ^ set(registry[kind].items()))}")
    print("ok  metric names and BENCHMARK.json match the registry")

    own = subprocess.run([binary, "--selftest", "--scratch",
                          os.path.join(run.build_base(), "run")],
                         cwd=run.ROOT, capture_output=True, text=True,
                         check=False)
    if own.returncode != 0:
        fail("fedbench --selftest\n" + own.stdout + own.stderr)
    print("ok  percentile rule and same-seed determinism (fedbench --selftest)")

    for workload in (w["name"] for w in bench["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                fail(f"{workload} --trace {trace}: exit {done.returncode}\n"
                     + done.stdout + done.stderr)
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                fail(f"{workload} --trace {trace}: {lines[-1]}")
            emitted = {n: m["unit"] for n, m in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in bench[kind]}
            if emitted != wanted:
                fail(f"{workload} --trace {trace} emitted "
                     f"{sorted(set(emitted.items()) ^ set(wanted.items()))}")
            print(f"ok  {workload} --trace {trace}: every {kind} metric "
                  "emitted with its unit")
    print("selftest ok")


if __name__ == "__main__":
    main()
