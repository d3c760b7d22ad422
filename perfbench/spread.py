#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1] [--overhead]

Run it from the root of the checkout. For every workload and end-to-end
metric it prints the median over the seeds and the distance between the
first and third quartiles as a share of the median, next to the metric's
bound from BENCHMARK.json, and below it the spread of the same figure in
wall-clock time (before scaling by the host probe). With --overhead it instead runs each seed once
untraced and once traced and reports the traced-minus-untraced difference
of every end-to-end metric (the tracing overhead).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stdout}")
    return lines


def values(lines):
    return {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}


def wall_clock(lines):
    for line in lines:
        if line.startswith("wall clock:"):
            return {k: float(v) for k, v in re.findall(r"(\w+)=([-+.\deE]+)", line)}
    return {}


def traced_e2e(lines):
    for line in lines:
        if line.startswith("traced end-to-end:"):
            return {k: float(v) for k, v in re.findall(r"(\S+)=(\S+)", line)}
    return {}


def spread(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return statistics.median(xs), (q3 - q1) / statistics.median(xs)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        if args.overhead:
            diffs = {name: [] for name in bounds}
            for seed in seeds:
                plain = values(run(workload, seed, args.seconds, 0))
                traced = traced_e2e(run(workload, seed, args.seconds, 1))
                for name in bounds:
                    diffs[name].append((traced[name] - plain[name]) / plain[name])
            for name, ds in diffs.items():
                print(f"{workload:14s} {name:18s} traced-untraced "
                      f"median {100 * statistics.median(ds):+.1f}% "
                      f"(per seed: {' '.join(f'{100 * d:+.1f}' for d in ds)})")
            continue
        outputs = [run(workload, seed, args.seconds, args.trace) for seed in seeds]
        runs = [values(lines) for lines in outputs]
        walls = [wall_clock(lines) for lines in outputs]
        for name in runs[0]:
            xs = [r[name] for r in runs]
            if args.trace or len(xs) < 2:
                print(f"{workload:14s} {name:34s} median {statistics.median(xs):.6g}")
                continue
            med, rel = spread(xs)
            bound = bounds.get(name, float("nan"))
            flag = "" if rel < bound / 3 else ("  WIDE" if rel > bound else "  >1/3")
            print(f"{workload:14s} {name:18s} median {med:12.6g}  "
                  f"iqr/median {rel:.4f}  bound {bound}{flag}  "
                  f"values {' '.join(f'{x:.5g}' for x in xs)}")
            if all(name in w for w in walls):
                ws = [w[name] for w in walls]
                med, rel = spread(ws)
                print(f"{'':14s} {'(wall clock)':18s} median {med:12.6g}  "
                      f"iqr/median {rel:.4f}  "
                      f"values {' '.join(f'{x:.5g}' for x in ws)}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
