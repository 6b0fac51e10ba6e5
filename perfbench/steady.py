#!/usr/bin/env python3
"""Steadiness check: runs one workload once per seed, for the run length of
BENCHMARK.json, and prints, for every end-to-end metric, the median, the
quartiles and the quartile spread as a share of the median, next to the
metric's bound in BENCHMARK.json.

Run from the repository root, for example:
    python3 perfbench/steady.py --workload churn_1k --seeds 1-10
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    values = {}
    shares = set()
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: the workload's checks failed")
        shares.add((result["failed"], result["attempted"]) if result["failed"] else 0)
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items())),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"\n{args.workload}: {len(parse_seeds(args.seeds))} runs of {seconds} s")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, vals in sorted(values.items()):
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name, {}).get("bound", float("nan"))
        print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} {bound:6.2f}")
    print(f"failed share: {'always 0' if shares == {0} else shares}")


if __name__ == "__main__":
    main()
