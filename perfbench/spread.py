#!/usr/bin/env python3
"""Runs the benchmark command of BENCHMARK.json once per seed and reports,
per workload and metric, the median and the spread (first-to-third quartile
distance as a share of the median, from statistics.quantiles(values, n=4)).

Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10                # every workload
    python3 perfbench/spread.py --workloads matrix --seeds 1-5 --trace 1
    python3 perfbench/spread.py --seeds 1-10 --out runs.json

End-to-end metrics are checked against their bounds: a spread above the
bound or any failed cell makes the exit status 1.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(bench, workload, seed, trace):
    command = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's result here as JSON")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    section = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[section]}

    runs, ok = {}, True
    for workload in workloads:
        results = []
        for seed in parse_seeds(args.seeds):
            result = run_once(bench, workload, seed, args.trace)
            results.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: {result['attempted']} cell runs, "
                  f"{result['failed']} failed", file=sys.stderr)
            ok &= result["correct"] and result["failed"] == 0
        runs[workload] = results
        print(f"\n{workload} ({len(results)} runs, trace {args.trace})")
        print(f"  {'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (median, median, median))
            spread = (q3 - q1) / abs(median) if median else 0.0
            flag = ""
            if bound is not None and spread > bound:
                flag, ok = " OVER", False
            bound_text = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {name:<34} {median:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {bound_text:>6} {unit}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
