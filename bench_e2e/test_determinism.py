#!/usr/bin/env python3
"""Determinism check of the end-to-end benchmark.

    python3 bench_e2e/test_determinism.py

Runs every workload twice at the default seed, untraced and traced, and
checks that the counts that must repeat exactly do. They would not if a
crash or checkpoint cadence, or install detection, depended on wall time.
Then runs every workload on a held-out seed, whose verdicts must pass.
Exits non-zero on any difference or failed verdict.
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
# Short runs: each pass still completes at least one cycle of episodes.
SECONDS = 1
EXACT = {
    0: ["msgs_per_update", "bytes_per_update", "source_reads_per_update"],
    1: ["core.terms_substituted", "core.uqs_peak", "recovery.wal_appends",
        "consistency.states"],
}


def main():
    workloads, _ = run.workloads()
    driver = run.build()
    problems = []

    def result(workload, seed, trace):
        _, res = run.run_workload(driver, workload, seed, SECONDS, trace)
        if not res["correct"]:
            problems.append(f"{workload} seed {seed} trace {trace}: "
                            f"{res['failed']} of {res['attempted']} failed")
        return res["metrics"]

    for workload in workloads:
        for trace, names in EXACT.items():
            first = result(workload, DEFAULT_SEED, trace)
            second = result(workload, DEFAULT_SEED, trace)
            for name in names:
                a, b = first[name]["value"], second[name]["value"]
                status = "same" if a == b else "DIFFERENT"
                print(f"{workload:20s} {name:26s} {a!r:>16} {b!r:>16} "
                      f"{status}", flush=True)
                if a != b:
                    problems.append(f"{workload} {name}: {a!r} then {b!r}")
        result(workload, HELD_OUT_SEED, 0)
        print(f"{workload:20s} held-out seed {HELD_OUT_SEED} ran", flush=True)

    for problem in problems:
        print("FAILED:", problem)
    print("determinism:", "ok" if not problems else "FAILED")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
