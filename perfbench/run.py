#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload inproc --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
same workload with the layer wrappers in and prints every per-layer
metric, a layer table per process, and writes the spans as JSONL under
``perfbench/out/``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("inproc", "serve", "linkage")
PROBE_TIMEOUT_S = 120


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", metavar="INPUTS",
        help="load the inputs saved in INPUTS, set the workload up in this "
             "fresh process, print READY and exit",
    )
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def probe_setup(workload: str, seed: int, inputs_path: str) -> float:
    """Set the workload up in a fresh interpreter; the seconds it took
    by its own clock."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--setup-probe", inputs_path],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, env=child_env(),
        cwd=str(ROOT),
    )
    for line in completed.stdout.splitlines():
        if line.startswith("READY "):
            return float(line.split()[1])
    raise RuntimeError(
        f"setup probe failed (exit {completed.returncode}): {completed.stderr[-2000:]}"
    )


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    from repro.math import fastpath

    from perfbench import inputs, measure, serve, workloads

    out_dir = str(OUT)
    setups = {
        "inproc": workloads.setup_inproc,
        "linkage": lambda data: workloads.setup_linkage(data, out_dir),
    }
    if args.setup_probe:
        if args.workload not in setups:
            print("perfbench: serve set-up is measured by spawning servers", file=sys.stderr)
            return 2
        setups[args.workload](inputs.load_inputs(args.setup_probe))
        print(f"READY {time.perf_counter() - _STARTED!r}", flush=True)
        return 0

    # Training is done here, untimed; every timed set-up loads its result.
    os.makedirs(out_dir, exist_ok=True)
    data = inputs.make_inputs(args.seed)
    inputs_path = os.path.join(out_dir, f"inputs-{args.seed}-{os.getpid()}.json")
    inputs.save_inputs(data, inputs_path)
    try:
        if args.workload == "serve":
            result = serve.run_serve(data, inputs_path, args.seconds, bool(args.trace),
                                     out_dir)
        else:
            prepared = workloads.traced_setup(
                bool(args.trace), lambda: setups[args.workload](data))
            run = {
                "inproc": workloads.run_inproc,
                "linkage": workloads.run_linkage_workload,
            }[args.workload]
            result = run(prepared, args.seed, args.seconds, bool(args.trace),
                         lambda: probe_setup(args.workload, args.seed, inputs_path), out_dir)
    finally:
        os.remove(inputs_path)

    recorder = result.recorder
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print(f"host cores={os.cpu_count()} usable={len(os.sched_getaffinity(0))} "
          f"backend={fastpath.backend_name()} "
          f"fastpath={'on' if fastpath.enabled() else 'off'} "
          f"python={platform.python_version()} seed={args.seed}")
    for kind in sorted(recorder.attempted):
        print(f"ops {kind} attempted={recorder.attempted[kind]} "
              f"failed={recorder.failed[kind]}")
    for line in result.notes:
        print(line)
    for line in (recorder.errors + recorder.mismatches)[:20]:
        print(f"problem {line}")
    for name, value in result.metrics.items():
        print(f"metric {name} {value:.6g} {measure.UNITS[name]}")
    summary = {
        "correct": not recorder.mismatches,
        "attempted": recorder.ops(),
        "failed": sum(recorder.failed.values()),
        "metrics": {
            name: {"value": value, "unit": measure.UNITS[name]}
            for name, value in result.metrics.items()
        },
    }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
