#!/usr/bin/env python3
"""Build the benchmark and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_matrix --seed 1 --seconds 20 --trace 0

The first run builds the benchmark package (release profile) into
``$CARGO_TARGET_DIR`` (default ``.bench_build``). The serving workload
runs pinned to one CPU (see ``PINNED``). The run prints the
workload's progress to standard error and its result as one JSON object,
last on standard output. With ``--trace 0`` the result holds every
``end_to_end`` metric of ``BENCHMARK.json``, with ``--trace 1`` every
``per_layer`` metric; a result without exactly those metrics is not
printed and the run exits with code 1.
"""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Workloads that run on one CPU. The serving workload's generator, I/O and
# shard threads hand each window from one to the next; spread over the
# vCPUs of a shared virtual machine, every hand-off wakes a sleeping vCPU
# and waits for the host's scheduler, which on a busy host costs a quarter
# of the run's CPU time and swings its figures several times over. On one
# CPU the hand-offs are plain context switches.
PINNED = {"serve_frozen"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with code {done.returncode}")


def check(result, expected):
    """Reasons the result line does not match BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int) or result.get(key) < 0:
            problems.append(f"{key} is not a whole number")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metrics missing {missing}, unexpected {extra}")
    for name, unit in expected.items():
        m = metrics.get(name, {})
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append(f"{name} is not a finite number")
        if m.get("unit") != unit:
            problems.append(f"{name} has unit {m.get('unit')!r}, not {unit!r}")
    return problems


def main():
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["RESEMBLE_PROGRESS"] = "0"
    env.pop("RESEMBLE_RUN_JOURNAL", None)
    env.pop("RESEMBLE_JOBS", None)
    build(env)
    binary = pathlib.Path(env["CARGO_TARGET_DIR"]) / "release" / "resemble-perfbench"

    cmd = [
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    cpus = {min(os.sched_getaffinity(0))} if args.workload in PINNED else None
    try:
        done = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
        )
    except subprocess.TimeoutExpired:
        fail("workload did not finish in time")
    if done.returncode != 0:
        fail(f"workload exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("workload printed no result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"result is not JSON: {e}")
    kind = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[kind]}
    problems = check(result, expected)
    if problems:
        fail("malformed result: " + "; ".join(problems))
    print(lines[-1])


if __name__ == "__main__":
    main()
