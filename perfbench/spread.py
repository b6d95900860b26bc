#!/usr/bin/env python3
"""Run one workload on several seeds and report how far its metrics spread.

    python3 perfbench/spread.py --workload search --seeds 101-110 [--seconds S] [--trace 0|1]

Run from the repository root. Each run goes through run.py. For every metric
it prints the median, the quartiles (statistics.quantiles(values, n=4)) and
the spread (q3 - q1) / median, next to the bound BENCHMARK.json gives the
metric. Exits non-zero when a run or an operation fails, or when an
end-to-end spread other than setup_s's exceeds its bound. The summary is also
written to .bench_build/spread/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarize(values):
    """Median, quartiles and relative spread of one metric's values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def parse_seeds(text):
    """'101-110' or '3,7,9' (or a mix) -> list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def over_bound(name, summary, bounds):
    """True when an end-to-end metric's spread exceeds its bound (setup_s is exempt)."""
    return name != "setup_s" and name in bounds and summary["spread"] > bounds[name]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("need at least two seeds")

    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit("spread.py: seed %d failed" % seed)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print("seed %d: attempted %d, failed %d" % (seed, result["attempted"], result["failed"]),
              file=sys.stderr)

    bounds = {} if args.trace else {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    ok = all(r["correct"] for r in results)
    print("%-28s %-9s %12s %12s %12s %8s %6s" % ("metric", "unit", "median", "q1", "q3",
                                                   "spread", "bound"))
    for name, first in results[0]["metrics"].items():
        s = summarize([r["metrics"][name]["value"] for r in results])
        summary[name] = dict(s, unit=first["unit"])
        bad = over_bound(name, s, bounds)
        ok = ok and not bad
        print("%-28s %-9s %12.5g %12.5g %12.5g %8.3f %6s%s" % (
            name, first["unit"], s["median"], s["q1"], s["q3"], s["spread"],
            bounds.get(name, ""), "  OVER" if bad else ""))

    out_dir = os.path.join(ROOT, ".bench_build", "spread")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "%s-trace%d.json" % (args.workload, args.trace)), "w") as f:
        json.dump({"seeds": args.seeds, "seconds": args.seconds, "metrics": summary,
                   "failed": sum(r["failed"] for r in results)}, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
