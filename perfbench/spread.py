#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload raw_query [--runs 10]

Run from the repository root. It runs seeds 1..runs with --trace 0 (the
gated end-to-end metrics). For each metric it prints the median of the
runs and the distance between the first and third quartiles as a share of
the median (statistics.quantiles(values, n=4)), next to the metric's bound
from BENCHMARK.json. Run time comes from BENCHMARK.json's run_seconds.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in range(1, args.runs + 1):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        start = time.monotonic()
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=False)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            sys.exit(1)
        result = json.loads(lines[-1])
        print(f"seed {seed}: {time.monotonic() - start:.1f} s, correct {result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        note = "" if bound is None else f"  bound {bound:.3f}  ratio {spread / bound:.2f}"
        print(f"{name:28s} median {med:14.6g}  spread {spread:7.4f}{note}")


if __name__ == "__main__":
    main()
