#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10] [--repeat 1]
                                [--trace 0] [--jsonl PATH]

Runs perfbench/run.py once per (workload, seed, repeat), sequentially,
with BENCHMARK.json's run_seconds, and prints for every metric its median
and its spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median. With --trace 0 each
spread is compared with a third of the metric's bound; setup_s is exempt
from the spread check. --repeat N with a single seed measures host noise
on fixed inputs; many seeds add the inputs' own variation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jsonl", help="append every result to this file")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            for _ in range(args.repeat):
                cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]),
                       "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      stderr=subprocess.DEVNULL, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print("%s seed %d: exit %d" % (workload, seed, proc.returncode))
                    ok = False
                    continue
                result = json.loads(lines[-1])
                ok = ok and result["correct"]
                runs.append(result)
                if args.jsonl:
                    with open(args.jsonl, "a") as f:
                        f.write(json.dumps(dict(result, workload=workload,
                                                seed=seed)) + "\n")
        if not runs:
            continue
        print("%s: %d runs" % (workload, len(runs)))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, sp = spread(values)
            bound = bounds.get(name) if args.trace == 0 else None
            verdict = ""
            if bound is not None and name != "setup_s":
                steady = sp < bound / 3
                ok = ok and sp <= bound
                verdict = "  bound %.3g: %s" % (bound, "steady" if steady else
                                                 "WIDE" if sp > bound else
                                                 "within bound, above a third")
            print("  %-36s median %-14.6g spread %.4f%s" % (name, med, sp, verdict))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
