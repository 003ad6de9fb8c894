#!/usr/bin/env python3
"""Builds the benchmark from the checkout it runs in and runs one workload.

    python3 perfbench/run.py --workload <ingest|query|churn> --seed <n> \
        --seconds <s> --trace <0|1> [--small]

Run it from the root of a checkout. The engine library is compiled from the
checkout's src/ together with the benchmark (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset. The workload runs in a fresh process pinned to one CPU, with its data
under .bench_data/ in the checkout; the data is deleted afterwards. A traced
run (--trace 1) also writes its spans to <build dir>/traces/.

The last line of standard output is the benchmark's JSON result. The exit
code is the benchmark's: 0 when it ran and every output check passed.
Build output goes to standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir: str) -> str:
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt here; run from the root of a checkout")
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, env=env, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4"],
        check=True, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "query", "churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true",
                        help="toy sizes, same code path and checks")
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
        "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")

    data_dir = os.path.join(
        ROOT, ".bench_data", f"{args.workload}-{args.seed}-{os.getpid()}")
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--dir={data_dir}"]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command.append(
            f"--trace_out={traces}/{args.workload}-{args.seed}.json")
    if args.small:
        command.append("--small")
    # One client thread, kept on one CPU: migrations between CPUs that other
    # tenants share are a source of run-to-run noise.
    cpu = max(os.sched_getaffinity(0))
    try:
        code = subprocess.run(
            command, check=False,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu})).returncode
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_data"))
        except OSError:
            pass
    sys.exit(code if code >= 0 else 1)


if __name__ == "__main__":
    main()
