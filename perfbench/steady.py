#!/usr/bin/env python3
"""Steadiness mode: run workloads over several seeds and show the spread.

    python3 perfbench/steady.py --workloads inproc,serve,linkage --seeds 1-10

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time,
with the run length from ``BENCHMARK.json``.  Per workload and
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread — the distance
between the quartiles as a share of the median — against the metric's
bound, and whether the share of failed operations is the same in every
run.  A spread above a third of the bound is flagged ``WIDE``, above
the bound ``OVER``; such a metric needs more work per run, or its
workload is not steady enough to keep.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=str(ROOT),
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed}: exit {completed.returncode}\n{completed.stderr[-3000:]}"
        )
    summary = json.loads(lines[-1])
    summary["wall_s"] = time.monotonic() - started
    return summary


def describe(values, bound):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    flag = "ok"
    if spread > bound:
        flag = "OVER"
    elif spread > bound / 3:
        flag = "WIDE"
    return median, q1, q3, spread, flag


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="inproc,serve,linkage")
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds(args.seeds):
            summary = run_once(workload, seed, seconds)
            results.append(summary)
            print(f"{workload} seed={seed} correct={summary['correct']} "
                  f"attempted={summary['attempted']} failed={summary['failed']} "
                  f"wall={summary['wall_s']:.1f}s", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"== {workload}: {len(results)} runs, failed share "
              f"{'identical' if len(shares) == 1 else 'DIFFERS'} {sorted(shares)}, "
              f"all correct: {all(r['correct'] for r in results)}, "
              f"longest run {max(r['wall_s'] for r in results):.1f}s")
        print(f"   {'metric':<38}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
              f"{'bound':>8}  flag")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) < 2:
                continue
            median, q1, q3, spread, flag = describe(values, bound)
            print(f"   {name:<38}{median:12.5g}{q1:12.5g}{q3:12.5g}{spread:9.3f}"
                  f"{bound:8.3f}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
