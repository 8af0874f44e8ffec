#!/usr/bin/env python3
"""Run benchmark workloads repeatedly and summarise every metric.

    python3 perfbench/suite.py [--workloads a,b] [--runs N] [--seed S]
                               [--seconds T] [--trace 0|1]

Run from the repository root. Each run goes through perfbench/run.py with
its own seed (S, S+1, ...). With --runs 1 this is the one command that runs
every workload; with --trace 1 it is the per-layer run of every workload.
For each workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the quartile
distance as a share of the median. A run fails when it exits non-zero, is
not correct, or its metrics are not exactly the end-to-end (or, traced, the
per-layer) metrics of BENCHMARK.json in their units. Exits non-zero if any
run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_open_loop", "av_closed_loop", "dspn_sweep")


def manifest_units(trace):
    """Metric name -> unit that every result of this mode must hold."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        manifest = json.load(f)
    return {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    expected = manifest_units(args.trace)
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        for i in range(args.runs):
            result = run_once(workload, args.seed + i, args.seconds, args.trace)
            if result is None or not result["correct"]:
                print(f"{workload} seed {args.seed + i}: FAILED")
                ok = False
                continue
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != expected:
                print(f"{workload} seed {args.seed + i}: FAILED, metrics {got} "
                      f"differ from BENCHMARK.json {expected}")
                ok = False
                continue
            row = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
            print(f"{workload} seed {args.seed + i}: attempted {result['attempted']} "
                  f"failed {result['failed']} {row}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / abs(med) if med else float("nan")
            print(f"  {workload:16s} {name:28s} median {med:12.6g} {units[name]:9s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f} (n={len(vals)})")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
