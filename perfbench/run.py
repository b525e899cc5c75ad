#!/usr/bin/env python3
"""Build and run the wave-index wall-clock benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload scam-pool --seed 1 --seconds 20 --trace 0

It builds perfbench/wavebench.exe from source with dune (build tree in
.perfbench/_build), runs it once, and prints one JSON object as the last
line of stdout: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from a traced run, whose spans are written to
.perfbench/spans-<workload>.json.

The program's deterministic values (model seconds, disk and cache
counts, GC counts, ...) must repeat exactly in every run of one build
with the same arguments.  They are recorded in .perfbench/exact.json,
keyed by the binary's digest, and any difference from an earlier run
makes the result incorrect.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

OUT_DIR = ".perfbench"
BUILD_DIR = os.path.join(OUT_DIR, "_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "wavebench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout of the repository (no dune-project or lib/ here)")
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
           "--cache=disabled", "--profile", "release", "./perfbench/wavebench.exe"]
    try:
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not on PATH")
    except subprocess.CalledProcessError as e:
        fail(f"build failed with exit code {e.returncode}")
    except subprocess.TimeoutExpired:
        fail("build timed out")


def digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_exact(key, exact):
    """Compares this run's exact values with an earlier run's; returns
    the names that differ."""
    path = os.path.join(OUT_DIR, "exact.json")
    build_id = digest(EXE)
    try:
        with open(path) as f:
            state = json.load(f)
    except (OSError, ValueError):
        state = {}
    if state.get("build") != build_id:
        state = {"build": build_id, "runs": {}}
    previous = state["runs"].setdefault(key, exact)
    with open(path, "w") as f:
        json.dump(state, f, indent=1, sort_keys=True)
    return sorted(k for k in set(previous) | set(exact) if previous.get(k) != exact.get(k))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}", proc.returncode or 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    key = f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
    differ = check_exact(key, result["exact"])
    correct, attempted, failed = result["correct"], result["attempted"] + 1, result["failed"]
    if differ:
        print(f"perfbench: exact values differ from an earlier run of this build: {differ}",
              file=sys.stderr)
        correct, failed = False, failed + 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))


if __name__ == "__main__":
    main()
