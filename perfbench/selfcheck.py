#!/usr/bin/env python3
"""Sensitivity self-check: do the bounds catch a real regression?

    python3 perfbench/selfcheck.py [--seeds 5] [--first-seed 2000]

Runs workload ema-static-n1000 three ways per seed, in rotating order:
unmodified, through a pass-through scheduler decorator, and through a
decorator that busy-waits after every decision for as long as the decision
took (twice the scheduler's cost, injected without touching src/). It passes
when
  * the slow decorator makes op_tail_us and user_slots_per_s worse than the
    unmodified medians by more than their bounds in BENCHMARK.json, and
  * the pass-through decorator leaves every end-to-end median within its
    bound.
Exits 1 otherwise.
"""

import argparse
import statistics
import sys

from spread import load_benchmark, run_once

WORKLOAD = "ema-static-n1000"
MUST_FLAG = ("op_tail_us", "user_slots_per_s")


def worsening(metric, base, other):
    """How much worse `other` is than `base`, as a share of `base`."""
    if metric["better"] == "lower":
        return other / base - 1.0
    return 1.0 - other / base


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=2000)
    args = parser.parse_args()
    bench = load_benchmark()
    modes = ("none", "pass", "slow")
    runs = {mode: [] for mode in modes}
    for k in range(args.seeds):
        for i in range(len(modes)):
            mode = modes[(i + k) % len(modes)]
            runs[mode].append(run_once(WORKLOAD, args.first_seed + k, bench["run_seconds"],
                                       inject=mode))
    ok = True
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        med = {m: statistics.median(r["metrics"][name]["value"] for r in runs[m])
               for m in modes}
        pass_worse = worsening(metric, med["none"], med["pass"])
        slow_worse = worsening(metric, med["none"], med["slow"])
        verdicts = []
        if pass_worse > bound:
            ok = False
            verdicts.append("FAIL pass-through moved it")
        if name in MUST_FLAG:
            if slow_worse > bound:
                verdicts.append("slowdown flagged")
            else:
                ok = False
                verdicts.append("FAIL slowdown missed")
        print(f"{name:18s} none {med['none']:12.6g}  pass {pass_worse:+7.3f}  "
              f"slow {slow_worse:+7.3f}  bound {bound:4.2f}  {'; '.join(verdicts)}")
    print("sensitivity self-check:", "PASS" if ok else "FAIL")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
