#!/usr/bin/env python3
"""Benchmark runner.

Driver form (one workload, one run; the last stdout line is the result)::

    python3 bench/run.py --workload rollout_comm32 --seed 3 --seconds 20 --trace 0

Without ``--workload`` every workload runs, each in a fresh process so
``peak_rss_mb`` is its own, and the runs are collected with the run
manifest in ``bench/results/``::

    python3 bench/run.py                      # end-to-end metrics, tracing off
    python3 bench/run.py --traced             # per-layer metrics + reconcile lines
    python3 bench/run.py --runs 10 --out A    # ten seeds per workload -> results/A.json

The exit status is non-zero when any correctness check failed.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import pathlib  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from bench import env  # noqa: E402

env.use_checkout_sources()
env.pin_allocator()  # re-executes once; nothing heavy is loaded yet
env.pin_threads()  # before numpy loads its BLAS

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402

from bench import harness, workloads  # noqa: E402


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload in this process."""
    workload = workloads.load(name)
    if trace:
        from bench import traced

        return traced.measure_traced(workload, seed, seconds)
    # Imports end here for the untraced path: everything a run needs is loaded.
    import_s = time.perf_counter() - _START
    return harness.measure_untraced(workload, seed, seconds, import_s)


def print_metrics(name: str, record: dict) -> None:
    for metric, entry in record["metrics"].items():
        print(f"{name:18s} {metric:44s} {entry['value']:14.6g} {entry['unit']}")


def run_all(seed: int, seconds: float, trace: bool, runs: int, out: str | None) -> int:
    """Every workload, ``runs`` seeds each, one child process per run."""
    records = []
    for name in workloads.NAMES:
        for run in range(runs):
            command = [
                sys.executable, __file__, "--workload", name, "--seed", str(seed + run),
                "--seconds", str(seconds), "--trace", str(int(trace)),
            ]  # fmt: skip
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=env.ROOT)
            lines = child.stdout.strip().splitlines()
            if not lines:
                print(f"{name}: no result (exit {child.returncode})", file=sys.stderr)
                return child.returncode or 1
            record = json.loads(lines[-1])
            record.update(workload=name, seed=seed + run, trace=int(trace))
            records.append(record)
            print_metrics(name, record)
            print(
                f"{name:18s} attempted {record['attempted']} failed {record['failed']} "
                f"correct {record['correct']}"
            )
    label = out or ("traced" if trace else "untraced")
    path = env.RESULTS / f"{label}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    header = harness.manifest(seed=seed, run_seconds=seconds, runs_per_workload=runs)
    path.write_text(json.dumps({"manifest": header, "runs": records}, indent=1))
    print(f"wrote {path.relative_to(env.ROOT)}")
    return 0 if all(record["correct"] for record in records) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="measured phase per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload (all-workload form)")
    parser.add_argument("--out", help="label of the collected result file (all-workload form)")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((env.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    trace = bool(args.trace or args.traced)
    if args.workload is None:
        return run_all(args.seed, seconds, trace, args.runs, args.out)
    record = run_one(args.workload, args.seed, seconds, trace)
    print_metrics(args.workload, record)
    sys.stdout.flush()
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
