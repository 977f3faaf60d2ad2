#!/usr/bin/env python3
"""perfbench entry point: builds the benchmark package, runs one workload.

    python3 perfbench/run.py --workload serve-lookup --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the repository's libraries, the stock repserved
daemon and the perfbench binary) under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs only rebuild what changed.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are BENCHMARK.json's
end_to_end list, with --trace 1 its per_layer list; a per-layer metric whose
layer the workload does not exercise reads 0. The exit code is 0 when every
correctness check passed, 1 when one failed (named on stderr), 2 on a usage
or build error, in which case no result line is printed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    for need in ("src/CMakeLists.txt", "tools/repserved.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            die(f"repository sources missing ({need}); run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j4", "--target", "perfbench", "repserved"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            die(f"build step failed: {' '.join(cmd)}: {e}")
        if done.returncode != 0:
            die(f"build step failed ({done.returncode}): {' '.join(cmd)}")


def normalize(result, spec, trace):
    """Orders the metrics as BENCHMARK.json lists them and checks units."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    unknown = sorted(set(got) - {m["name"] for m in wanted})
    if unknown:
        die(f"metrics not declared in BENCHMARK.json: {', '.join(unknown)}")
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in got:
            if got[name]["unit"] != unit:
                die(f"metric {name}: unit {got[name]['unit']} != declared {unit}")
            metrics[name] = {"value": got[name]["value"], "unit": unit}
        elif trace:
            metrics[name] = {"value": 0, "unit": unit}  # layer not exercised
        else:
            die(f"end-to-end metric {name} missing from the result")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="one of BENCHMARK.json's workloads, or sharded-pushsum (ungated)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)
    out_dir = os.path.join(build_dir, "spans")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--repserved", os.path.join(build_dir, "repserved"), "--out-dir", out_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die(f"perfbench exited {done.returncode} without a result line")
    print(json.dumps(normalize(result, spec, args.trace == 1)), flush=True)
    sys.exit(0 if done.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
