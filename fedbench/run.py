#!/usr/bin/env python3
"""Build and run the FedPower repository benchmark.

Run from the repository root:

    python3 fedbench/run.py --workload paper_sync --seed 1 --seconds 10 --trace 0

Workloads: paper_sync, fleet_lazy, serve_tcp (fedbench/NOTES.md says why
each exists). --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer metrics and writes a Chrome trace-event file. The last stdout
line is one JSON object with the keys correct, attempted, failed, metrics.

The script first builds fedbench/ (and the FedPower libraries it compiles
from src/) with CMake into $CARGO_TARGET_DIR/fedbench, default
.bench_build/fedbench; build output goes to stderr. It exits non-zero,
printing no result, when the build fails or the run exceeds its time limit.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_sync", "fleet_lazy", "serve_tcp")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_base():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    """Configures (once) and builds the benchmark binary; returns its path
    or None when the build fails."""
    out = os.path.join(build_base(), "fedbench")
    binary = os.path.join(out, "fedbench")
    steps = []
    configured = any(os.path.exists(os.path.join(out, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", out, "--target", "fedbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"fedbench: build step failed: {error}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print("fedbench: build failed", file=sys.stderr)
            return None
    return binary if os.path.exists(binary) else None


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_sha1():
    """Digest of the sources the binary is built from, for checkouts that
    are not git repositories."""
    digest = hashlib.sha1()
    for top in ("src", "fedbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as source:
                    digest.update(source.read())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    env = dict(os.environ, FEDBENCH_GIT_SHA=git_sha(),
               FEDBENCH_SOURCE_SHA1=source_sha1())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--scratch", os.path.join(build_base(), "run")]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"fedbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
