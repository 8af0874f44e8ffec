#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
mvreju libraries plus the perfbench program (Release) into $CARGO_TARGET_DIR
(default .bench_build); later runs only re-check the build. The program's
output is passed through unchanged: its last stdout line is the JSON result.
Exits non-zero, without a result line, when the build fails; with the
program's exit code otherwise (1 when a correctness check failed).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_open_loop", "av_closed_loop", "dspn_sweep")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure once, then build the program; returns the binary path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as e:
            sys.exit(f"perfbench: cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(os.path.join(os.path.abspath(target), "perfbench"))

    # MVREJU_* variables select backends, thread counts, logging and the
    # observability kill switch; the benchmark runs the program as built.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MVREJU_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        done = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
