#!/usr/bin/env python3
"""Build and run the ringstab repository benchmark (see METRICS.md).

One workload, with the interface BENCHMARK.json declares:

    python3 perfbench/run.py --workload check-converge --seed 1 \
        --seconds 21 --trace 0

Every workload, untraced and traced, with every named figure:

    python3 perfbench/run.py --all [--seed 1] [--seconds 21]

The benchmark's own tests:

    python3 perfbench/run.py --selftest

The perfbench binary is built from source into .bench_build/perfbench under
the checkout root. A run prints human-readable lines and then, as its last
line, one JSON object {"correct", "attempted", "failed", "metrics"}; this
script checks that line against BENCHMARK.json before passing it on.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "perfbench-out")
RUN_TIMEOUT_S = 170
# An untraced run splits its window over this many perfbench processes, run one
# after another. Speed on a shared machine differs from process to process
# (memory placement, address layout, the CPU a thread stays on) by up to
# ~20%; averaging several processes per run keeps run-to-run spread down.
PROCESSES = 3
WORKLOADS = ["check-converge", "check-livelock", "synth-matching", "serve-mix"]


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def check_checkout():
    for rel in ("src/CMakeLists.txt", "examples/rings/herman.ring",
                "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            fail(f"{rel} not found under {ROOT}: run from a ringstab checkout")


def build():
    """Configure once, then build perfbench and its self-test (incremental)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "perfbench_selftest", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def describe():
    """git describe when the checkout is a git repository, else a digest of
    the sources the benchmark builds and reads."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, capture_output=True, text=True)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "examples/rings", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def metric_spec(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def validate(line, trace):
    """Problems with a result line, as a list of messages (empty = valid)."""
    try:
        result = json.loads(line)
    except ValueError as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["result keys must be correct, attempted, failed, metrics"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    want = metric_spec(trace)
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metric names differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got.get(name)
        if not isinstance(m, dict) or m.get("unit") != unit:
            problems.append(f"{name}: unit must be {unit}")
        elif not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append(f"{name}: value is not a finite number")
    return problems


def run_one(workload, seed, seconds, trace, tag):
    """Runs the perfbench binary once; returns (exit code, stdout lines)."""
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--root", ".",
           "--out", OUT_DIR, "--describe", tag]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    lines = done.stdout.splitlines()
    if done.returncode != 0:
        return done.returncode, lines
    problems = validate(lines[-1] if lines else "", trace)
    for p in problems:
        print(f"perfbench: invalid result line: {p}", file=sys.stderr)
    return (3 if problems else 0), lines


def merge(results):
    """One result from the processes' results: the checks add up, and each
    metric is the mean of the processes' values. setup_s takes the median
    instead: a set-up lasts microseconds, and one process that starts while
    the machine is busy can read several times slower."""
    def combine(name):
        values = [r["metrics"][name]["value"] for r in results]
        if name == "setup_s":
            return statistics.median(values)
        return statistics.fmean(values)
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": combine(name), "unit": m["unit"]}
                    for name, m in results[0]["metrics"].items()},
    }


def run_workload(workload, seed, seconds, trace, tag):
    """A traced run is one process; an untraced run is PROCESSES processes
    of seconds / PROCESSES each, merged. Returns (exit code, stdout lines)."""
    if trace:
        return run_one(workload, seed, seconds, True, tag)
    lines, results = [], []
    for i in range(PROCESSES):
        code, out = run_one(workload, seed, seconds / PROCESSES, False, tag)
        if code != 0:
            return code, out
        lines += [f"[process {i + 1}/{PROCESSES}] {line}" for line in out[:-1]]
        results.append(json.loads(out[-1]))
    return 0, lines + [json.dumps(merge(results))]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=21)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests")
    args = parser.parse_args()
    if not (args.all or args.selftest or args.workload):
        parser.error("give --workload, --all or --selftest")

    check_checkout()
    build()

    if args.selftest:
        done = subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_selftest"), "."], cwd=ROOT)
        return done.returncode

    tag = describe()
    if args.workload and not args.all:
        code, lines = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace), tag)
        if code != 0:  # never pass on a result line from a failed run
            lines = [l for l in lines if not l.startswith('{"correct"')]
        print("\n".join(lines), flush=True)
        return code

    worst = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            print(f"== {workload} (trace {int(trace)}, seed {args.seed})",
                  flush=True)
            code, lines = run_workload(workload, args.seed, args.seconds,
                                       trace, tag)
            print("\n".join(lines), flush=True)
            if code == 0 and not json.loads(lines[-1])["correct"]:
                code = 4
            worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
