#!/usr/bin/env python3
"""End-to-end benchmark: builds the driver from this checkout and runs it.

    python3 bench_e2e/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

The driver (bench_e2e/driver.cc, which compiles ../src) is built in Release
under .bench_build/ at the checkout root, or $CARGO_TARGET_DIR when set. Each
workload runs in its own process with the environment its figures depend on
pinned: WVM_THREADS=4, and the WAL segments under .bench_build/tmp. Results
and the traced pass's spans are written to .bench_build/results/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --workload all (the default) every
workload runs and that line combines them, naming each metric
<workload>.<metric>. The exit code is non-zero if any verdict failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"))
THREADS = "4"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [w["name"] for w in bench["workloads"]], bench["run_seconds"]


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "e2e_driver",
                  "-j", THREADS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "e2e_driver")


def run_workload(driver, workload, seed, seconds, trace):
    """Runs one workload in a fresh process; returns (stdout lines, result)."""
    tmp = os.path.join(BUILD_DIR, "tmp")
    results = os.path.join(BUILD_DIR, "results")
    # A killed run leaves its WAL directory behind; start from empty.
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    os.makedirs(results, exist_ok=True)
    env = dict(os.environ, WVM_THREADS=THREADS, TMPDIR=tmp)
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", results]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload} printed no result (exit code {proc.returncode})")
    return lines, result


def main():
    names, run_seconds = workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    driver = build()
    chosen = names if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in chosen:
        lines, result = run_workload(driver, workload, args.seed, args.seconds,
                                     args.trace)
        print("\n".join(lines), flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    if len(chosen) > 1:
        print(json.dumps(combined))
    sys.exit(0 if combined["correct"] else 1)


if __name__ == "__main__":
    main()
