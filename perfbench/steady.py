#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of one workload.

    python3 perfbench/steady.py --workload <name> [--runs 10]

Run it from the root of a checkout. Each run is untraced and lasts
run_seconds of BENCHMARK.json. Run i of set A uses seed 2i+1 and run i of
set B seed 2i+2, alternating A, B, A, B, ... For every end-to-end metric it
prints each set's median, first and third quartile
(statistics.quantiles(values, n=4)) and spread, the quartile distance as a
share of the median. The sets agree when every spread is within its
metric's bound, the two medians differ by no more than the bound (as a
share of set A's median, in either direction), and both sets have the same
share of failed operations. Exits 0 when they agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"run failed: seed {seed}, exit {proc.returncode}")
    return json.loads(lines[-1])


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    results = ([], [])
    for i in range(args.runs):
        for s in range(2):
            seed = 2 * i + s + 1
            results[s].append(run_once(args.workload, seed,
                                       bench["run_seconds"]))
            print(f"run {i + 1}/{args.runs} set {'AB'[s]} seed {seed} done",
                  file=sys.stderr)

    agree = True
    print(f"workload {args.workload}, {args.runs} runs per set, "
          f"{bench['run_seconds']} s each")
    print(f"{'metric':16} {'set':3} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for spec in bench["end_to_end"]:
        name, bound = spec["name"], spec["bound"]
        medians = []
        for s in range(2):
            values = [r["metrics"][name]["value"] for r in results[s]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(median) if median else float("inf")
            medians.append(median)
            flag = ""
            if spread > bound:
                flag = "  SPREAD > BOUND"
                agree = False
            print(f"{name:16} {'AB'[s]:3} {median:14.6g} {q1:14.6g} "
                  f"{q3:14.6g} {spread:8.4f} {bound:>6}{flag}")
        change = (medians[1] - medians[0]) / abs(medians[0]) \
            if medians[0] else float("inf")
        if abs(change) > bound:
            agree = False
            print(f"{'':16} medians differ by {change:+.4f}, "
                  f"beyond {bound}")
    shares = [sorted({r["failed"] / r["attempted"] for r in res})
              for res in results]
    print(f"failed share per set: {shares}")
    if shares[0] != shares[1]:
        agree = False
    print("sets agree within bounds" if agree else "sets DISAGREE")
    sys.exit(0 if agree else 1)


if __name__ == "__main__":
    main()
