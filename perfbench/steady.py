"""Steadiness of the benchmark: repeat each workload and report the spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --runs 10 --seconds 30
    python3 perfbench/steady.py --runs 5 --workloads starlink-serve --first-seed 100

Each run is a fresh ``run.py`` process with its own seed (``first-seed``,
``first-seed + 1``, ...), one after another.  For every end-to-end metric of
every workload it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median: the spread the bounds in ``BENCHMARK.json`` are set from.  It
also prints the failed share of the operations, which must not vary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=180,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    median = statistics.median(values)
    low, _, high = statistics.quantiles(values, n=4)
    return median, low, high, (high - low) / median if median else float("inf")


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in benchmark["workloads"]),
        help="comma-separated workload names",
    )
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    for workload in args.workloads.split(","):
        results = []
        for offset in range(args.runs):
            started = time.perf_counter()
            result = run_once(workload, args.first_seed + offset, args.seconds)
            results.append(result)
            print(f"{workload} seed {args.first_seed + offset}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"({time.perf_counter() - started:.1f} s)", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: failed share {sorted(shares)}")
        print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median, low, high, share = spread(values)
            bound = bounds[name]
            flag = "" if share < bound / 3 else "  <-- over a third of the bound"
            print(f"{name:32} {median:12.4f} {low:12.4f} {high:12.4f} {share:8.3f} "
                  f"{bound:>6}{flag}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
