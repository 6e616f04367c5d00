#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each metric's median and
quartiles, as the reference figures in README.md were made.

    python3 perfbench/quartiles.py --workload serve_read --seeds 101-110 [--trace 1]

Run from the repository root. The benchmark command and run length are
read from BENCHMARK.json. Spread is (Q3 - Q1) / median over the seeds.
"""

import argparse
import json
import statistics
import subprocess


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="first-last, e.g. 101-110")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    first, last = (int(s) for s in args.seeds.split("-"))
    runs = []
    for seed in range(first, last + 1):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: attempted {runs[-1]['attempted']} failed {runs[-1]['failed']}", flush=True)
    print(f"\n{args.workload}, {len(runs)} seeds, trace {args.trace}")
    print(f"{'metric':40} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>7}")
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:40} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:7.3f}  {m['unit']}")


if __name__ == "__main__":
    main()
