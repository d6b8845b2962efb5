"""The benchmark's own tests: short runs of every workload, in both modes.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Runs ``run.py --short`` (one set-up, two seconds) for every workload with
``--trace 0`` and ``--trace 1`` and checks that the last output line is
the result object with every metric ``BENCHMARK.json`` names, with its
unit, and ``correct`` true.  Then checks that ``run.py`` fails, without a
result line, in a directory holding only ``BENCHMARK.json`` and the
benchmark's files.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(workload: str, trace: int, expected: dict) -> None:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "2", "--trace", str(trace), "--short"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=180,
    )
    if completed.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {completed.returncode}\n{completed.stderr[-2000:]}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"{workload} trace={trace}: keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        sys.exit(f"{workload} trace={trace}: {result['failed']} of {result['attempted']} failed")
    for name, unit in expected.items():
        metric = result["metrics"].get(name)
        if metric is None or metric["unit"] != unit or not isinstance(metric["value"], float):
            sys.exit(f"{workload} trace={trace}: metric {name} is {metric}")
    print(f"ok  {workload} trace={trace}")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    benchmark = json.loads((bare / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        [*benchmark["command"], "--workload", benchmark["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(bare), capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if completed.returncode == 0 or completed.stdout.strip():
        sys.exit("run.py did not fail in a directory without the program")
    print("ok  fails without the program")


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        expected = {metric["name"]: metric["unit"] for metric in benchmark[group]}
        for workload in benchmark["workloads"]:
            check_run(workload["name"], trace, expected)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
