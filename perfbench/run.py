#!/usr/bin/env python3
"""Builds the benchmark harness from this checkout's sources and runs one
workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the checkout. The build (CMake, Release) goes to
$CARGO_TARGET_DIR if set, else .bench_build; snapshot files and traces go
to <build dir>/work. The harness prints human-readable lines and, as its
last line, one JSON result object. Exits non-zero when the build fails, a
correctness check fails, or the printed metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out):
    """Configures (once) and builds the harness; build output goes to stderr."""
    generated = [os.path.join(out, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"harness timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    # Everything but the result goes out first, so the result stays last.
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        print(lines[-1] if lines else "")
        print(f"harness exited with {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        names = expected_metrics(args.trace == 1)
    except (ValueError, OSError, KeyError) as e:
        print(f"bad result or BENCHMARK.json: {e}", file=sys.stderr)
        return 1
    if sorted(result["metrics"]) != sorted(names):
        print(f"metrics {sorted(result['metrics'])} do not match BENCHMARK.json "
              f"{sorted(names)}", file=sys.stderr)
        return 1
    print(lines[-1])
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
