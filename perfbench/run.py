#!/usr/bin/env python3
"""Builds the repository benchmark and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout. The first run configures and
builds the vapb libraries, the vapbd daemon and the benchmark harness
(Release) under .bench_build/; later runs only rebuild what changed. The
harness report is passed through; its last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). A report whose metric names or units differ from
BENCHMARK.json is refused (exit 1, no result line), and so is a traced
report that declares a layer not entered while perfbench/predictions.json
cites one of its metrics for the workload.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "perfbench", "vapbd"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed (see {log_path})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build", "perfbench")
    build(build_dir)

    out_dir = os.path.relpath(build_dir, ROOT)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--vapbd", os.path.join(build_dir, "vapbd"), "--out-dir", out_dir]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        fail("the harness did not finish in time")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"the harness exited with {done.returncode} and no result")
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail(f"metrics {sorted(got.items())} differ from BENCHMARK.json "
             f"{sorted(expected.items())}")
    if args.trace:
        check_cited(args.workload, lines)
    print("\n".join(lines))


def check_cited(workload, lines):
    """Refuses a traced report that reports 0 for a metric the workload's
    predictions cite, because it declared that layer not entered."""
    prefix = "info trace.not_entered = "
    declared = [l[len(prefix):] for l in lines if l.startswith(prefix)]
    if len(declared) != 1:
        fail("the traced report has no trace.not_entered line")
    not_entered = set(filter(None, declared[0].split(",")))
    try:
        with open(os.path.join(HERE, "predictions.json")) as f:
            predictions = json.load(f)["workloads"][workload]["predictions"]
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read the predictions for {workload}: {e}")
    cited = {m for p in predictions for m in p["layers"]}
    if cited & not_entered:
        fail(f"{workload} cites {sorted(cited & not_entered)} in "
             "predictions.json but never enters those layers")


if __name__ == "__main__":
    main()
