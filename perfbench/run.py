#!/usr/bin/env python3
"""Builds and runs the glitchmask benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds perfbench/ (a CMake package that compiles the library from src/)
as a Release build under $CARGO_TARGET_DIR (default .bench_build), then
runs one measurement; the last line of its output is the result JSON.

    python3 perfbench/run.py --steady <k> --workload <name> [--seed <n>] [--seconds <s>]

is the steadiness self-check: it runs the workload k times with seeds
n, n+1, ..., n+k-1 and prints, for each end-to-end metric, the median,
the quartiles and the relative spread (q3 - q1) / median next to the
metric's bound from BENCHMARK.json.  A run that fails, hangs or prints
no result counts as failed, and the self-check then exits non-zero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# The measured run stops itself within ~150 s; this only guards a hang.
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build():
    """Configures (Release) and builds the perfbench binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"the glitchmask sources are missing under {ROOT}")
        sys.exit(2)
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if not cache.is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    build_type = ""
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    if build_type != "Release":
        log(f"refusing to measure a '{build_type}' build in {out}")
        sys.exit(2)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return out / "perfbench"


def command(binary, workload, seed, seconds, trace):
    return [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out-dir", str(build_dir() / "out"),
            "--goldens", str(BENCH_DIR / "goldens.txt")]


def steady(binary, args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    failed = 0
    for seed in range(args.seed, args.seed + args.steady):
        result = None
        try:
            run = subprocess.run(
                command(binary, args.workload, seed, args.seconds, 0),
                stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if run.returncode != 0 or not result["correct"]:
                result = None
        except subprocess.TimeoutExpired:
            log(f"seed {seed}: no result within {RUN_TIMEOUT_S} s")
        except (json.JSONDecodeError, TypeError):
            log(f"seed {seed}: the run printed no result line")
        if result is None:
            failed += 1
            log(f"seed {seed}: failed, its values are left out")
            continue
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        log(f"seed {seed}: " + ", ".join(
            f"{name}={values[name][-1]:.6g}" for name in values))
    print(f"{args.workload}: {args.steady} runs, seeds {args.seed}.."
          f"{args.seed + args.steady - 1}, {failed} failed")
    print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for m in metrics:
        v = values[m["name"]]
        if len(v) < 2:
            print(f"{m['name']:<20} too few successful runs")
            continue
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        if spread < m["bound"] / 3:
            verdict = "steady"
        elif spread < m["bound"]:
            verdict = "within bound"
        else:
            verdict = "TOO NOISY"
        print(f"{m['name']:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {m['bound']:>6}  {verdict}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="K")
    args = parser.parse_args()

    try:
        binary = build()
    except subprocess.CalledProcessError as error:
        log(f"build failed: {error}")
        return 1
    if args.steady:
        return steady(binary, args)
    try:
        run = subprocess.run(
            command(binary, args.workload, args.seed, args.seconds,
                    args.trace),
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"the run did not finish within {RUN_TIMEOUT_S} s")
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
