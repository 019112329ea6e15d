#!/usr/bin/env python3
"""Runs workloads under several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1000]

For each workload and end-to-end metric it prints the median of the runs and
the distance between the first and third quartile (statistics.quantiles with
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json. A spread wider than the bound means the metric cannot tell a
regression of that size from noise. Raw results land in
.bench_build/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(workload, seed, seconds, trace=0, inject="none"):
    """One run of perfbench/run.py; returns its result object."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--inject", inject]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}")
    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed} reported incorrect output")
    return result


def spread(values):
    """(median, IQR / median) as the benchmark's acceptance rule computes it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out_dir = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(out_dir, exist_ok=True)
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for k in range(args.seeds):
            start = time.monotonic()
            runs.append(run_once(workload, args.first_seed + k, args.seconds))
            print(f"  {workload} seed {args.first_seed + k}: {time.monotonic() - start:.1f} s",
                  file=sys.stderr)
        path = os.path.join(out_dir, f"{workload}-{int(time.time())}.json")
        with open(path, "w") as handle:
            json.dump(runs, handle)
        print(f"{workload} ({args.seeds} seeds from {args.first_seed}; raw: {path})")
        for name, bound in bounds.items():
            med, rel = spread([r["metrics"][name]["value"] for r in runs])
            share = rel / bound
            worst = max(worst, share)
            print(f"  {name:18s} median {med:14.6g}  spread {rel:7.4f}  bound {bound:5.2f}"
                  f"  spread/bound {share:5.2f}")
    print(f"worst spread/bound: {worst:.2f}")


if __name__ == "__main__":
    main()
