#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] --seconds S --trace 0|1

Run from the root of a source checkout. The script builds
perfbench/bench.exe with dune, runs one workload for S host seconds and
prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. A traced run also
writes the benchmark's own spans (Chrome trace) and BOHM's per-batch
timeline under perfbench/out/. perfbench/METRICS.md describes the
workloads and metrics.

Exits non-zero without a result when the checkout cannot be built, and
non-zero after the result when an engine's output is wrong.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    # Children are stopped and reaped on every way out of this script, a
    # timeout or a SIGTERM included: SIGTERM becomes an exception.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))

    for needed in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s missing: run from a full source checkout" % needed)

    # The shared dune cache lives outside the checkout; keep every build
    # artefact in the checkout's own _build.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed")

    cmd = [EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out = os.path.join(ROOT, "perfbench", "out")
        os.makedirs(out, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(out, "%s-seed%d" % (args.workload, args.seed))]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    lines = stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])

    # The printed metrics must be exactly the ones BENCHMARK.json declares.
    declared = declared_metrics(args.trace)
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        units = sorted(k for k in set(declared) & set(printed)
                       if declared[k] != printed[k])
        fail("metrics differ from BENCHMARK.json: missing %s, undeclared %s, "
             "unit mismatch %s" % (missing, extra, units))

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
