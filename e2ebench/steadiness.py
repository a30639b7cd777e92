#!/usr/bin/env python3
"""Runs the benchmark once per seed on each named workload and prints, per
end-to-end metric, the median, the quartiles and the spread (interquartile
distance over the median) of the runs, plus the share of failed operations.

    python3 e2ebench/steadiness.py --workloads testbed,codec --seeds 1-10 --seconds 30

Seeds are the outer loop: every seed runs each workload in turn, so a slow
stretch of the host lands on all workloads alike rather than on one.
Run from the repository root; it builds the benchmark first, exactly as
BENCHMARK.json's command does.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="testbed,fabric,campaign,codec")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="30")
    args = ap.parse_args()
    command = json.load(open("BENCHMARK.json"))["command"]
    workloads = args.workloads.split(",")
    runs = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            out = subprocess.run(
                command
                + ["--workload", workload, "--seed", str(seed), "--seconds", args.seconds,
                   "--trace", "0"],
                capture_output=True, text=True, check=False,
            )
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stdout}{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs[workload].append(result)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}", flush=True)
    for workload in workloads:
        for name in runs[workload][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{workload} {name}: median={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.4f}")
        shares = {r["failed"] / r["attempted"] for r in runs[workload]}
        print(f"{workload} failed shares: {sorted(shares)}", flush=True)


if __name__ == "__main__":
    main()
