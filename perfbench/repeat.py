#!/usr/bin/env python3
"""Run one workload N times and summarize each metric.

    python3 perfbench/repeat.py --workload <name> [--runs 10] [--seed 1]
                                [--same-seed] [--seconds S] [--trace 0|1]

Seeds are seed, seed+1, ... (or `seed` every time with --same-seed).
Prints each run's attempted/failed counts, then per metric the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json: "ok" below a third of the
bound, "WIDE" above the bound. Exits non-zero if a run fails, a run reports
correct: false, or the failed share differs between runs.
"""

import argparse
import fractions
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values, shares, bad = {}, set(), False
    for i in range(args.runs):
        seed = args.seed if args.same_seed else args.seed + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: run failed (exit %d)\n%s" %
                  (seed, proc.returncode, proc.stderr[-2000:]))
            bad = True
            continue
        res = json.loads(lines[-1])
        shares.add(fractions.Fraction(res["failed"], res["attempted"]))
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, res["correct"], res["attempted"], res["failed"]))
        bad = bad or not res["correct"]
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print("\n%-36s %12s %12s %12s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name) if args.trace == "0" else None
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else (
                "WIDE" if spread > bound else "near")
        print("%-36s %12.6g %12.6g %12.6g %8.4f %6s %s" %
              (name, med, q1, q3, spread, bound if bound is not None else "",
               flag))
    if len(shares) > 1:
        print("failed share differs between runs: %s" %
              sorted(str(s) for s in shares))
        bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
