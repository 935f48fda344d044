#!/usr/bin/env python3
"""Run-to-run spread of the perfbench metrics.

    python3 perfbench/spread.py --workload serve --seeds 1 2 3 4 5
                                [--trace 0]

Runs perfbench/run.py once per seed (from the checkout root, for the
run_seconds BENCHMARK.json names) and prints, for every metric, the median,
the quartile spread as a share of the median (statistics.quantiles(values,
n=4): (Q3 - Q1) / median) and, for end-to-end metrics, the bound
BENCHMARK.json allows. A result whose spread exceeds a third of its bound
is flagged "noisy", one that exceeds the bound "OVER". Each seed's line
also shows the share of the run's CPU time the hypervisor stole (the
run's "host steal" line).
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    values = {}
    units = {}
    for seed in args.seeds:
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, check=False)
        steal = re.search(r"host steal ([0-9.]+)%", done.stderr.decode())
        lines = done.stdout.decode().strip().split("\n")
        result = json.loads(lines[-1]) if done.returncode == 0 else None
        if result is None or not result["correct"]:
            print(f"seed {seed}: run failed (exit {done.returncode})")
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()) +
              (f" (host steal {steal.group(1)}%)" if steal else ""),
              flush=True)

    print(f"\n{'metric':28} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / median if median else float("inf")
        else:
            spread = 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "OVER" if spread > bound else (
                "noisy" if spread > bound / 3 else "")
        bound_text = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name:28} {median:12.6g} {spread:8.3f} {bound_text:>6} "
              f"{units[name]:6} {flag}")


if __name__ == "__main__":
    main()
