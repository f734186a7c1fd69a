#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's end-to-end metrics.

Run from the repository root:

    python3 perfbench/spread.py --workload leakd-mixed --seeds 1-10

Each seed is one benchmark run with tracing off. For every end-to-end metric
it prints the median over the runs and the spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the median,
beside the metric's bound from BENCHMARK.json and a third of it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit("seed %d failed (exit %d): %s" % (seed, out.returncode, out.stderr))
        res = json.loads(lines[-1])
        env = json.loads(lines[-2])["run"]
        for name, m in res["metrics"].items():
            values[name].append(m["value"])
        print("seed %d: correct=%s failed=%d/%d setup_s=%.4f verdict_s=%.4f cpu_steal_s=%s" % (
            seed, res["correct"], res["failed"], res["attempted"], res["metrics"]["setup_s"]["value"],
            res["metrics"]["verdict_s"]["value"], env.get("cpu_steal_s")), file=sys.stderr)
    for m in bench["end_to_end"]:
        xs = values[m["name"]]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
        print("%-22s median %-14.6g spread %.4f  bound %.2f (1/3: %.4f)%s"
              % (m["name"], med, spread, m["bound"], m["bound"] / 3, flag))


if __name__ == "__main__":
    main()
