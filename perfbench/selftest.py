#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Run it from the root of a checkout. It runs every workload of
BENCHMARK.json through run.py with --small, untraced and traced, so the
same code path runs with every output check on and finishes in seconds.
It then checks the result line against BENCHMARK.json: exactly the keys
correct, attempted and failed and metrics; every end-to-end metric
(untraced) or per-layer metric (traced) present with its unit; no failed
operation. Every run is tried; it prints one line per run and exits
non-zero if any run failed.
"""

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def check(bench: dict, workload: str, trace: int) -> str:
    """Runs one workload at toy size; returns "" or what went wrong."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "1",
               "--seconds", "2", "--trace", str(trace), "--small"]
    proc = subprocess.run(command, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        failed = [line for line in proc.stderr.splitlines()
                  if "check failed:" in line]
        return f"exit {proc.returncode} {' '.join(failed)}".rstrip()
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"keys {sorted(result)}"
    if result["correct"] is not True or result["failed"] != 0:
        return f"correct={result['correct']} failed={result['failed']}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return f"attempted {result['attempted']}"
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in bench[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        return (f"metrics differ from BENCHMARK.json {kind}: "
                f"{sorted(set(got.items()) ^ set(want.items()))}")
    return ""


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            problem = check(bench, workload, trace)
            failures += bool(problem)
            print(f"selftest: {workload} --trace {trace}: "
                  f"{problem or 'ok'}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
