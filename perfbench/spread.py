"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workload growth_scan --runs 10 --seconds 30

Each run is a separate ``run.py`` process with seeds first-seed,
first-seed+1, ...  For every metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  With ``--out`` the raw
results are also saved as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["seed"] = seed
        results.append(res)
        vals = " ".join(f"{k}={v['value']:.4g}"
                        for k, v in res["metrics"].items())
        print(f"seed {seed} correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']} {vals}", flush=True)

    summary = {}
    for name in results[0]["metrics"]:
        summary[name] = summarise([r["metrics"][name]["value"]
                                   for r in results])
        s = summary[name]
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name}: median {s['median']:.6g} q1 {s['q1']:.6g} "
              f"q3 {s['q3']:.6g} spread {spread}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "runs": results, "summary": summary}, fh, indent=1)


if __name__ == "__main__":
    main()
