#!/usr/bin/env python3
"""Compare two collected result files (``bench/run.py --runs N --out X``).

    python3 bench/compare.py bench/results/A.json bench/results/B.json

A is the parent, B the change.  For every end-to-end (metric, workload)
pair the verdict is one of

``worse``       B's median is worse than A's by more than the metric's
                bound in ``BENCHMARK.json``
``better``      B's median is better by more than the spread of A's own
                runs (the distance between their quartiles) and B wins at
                least nine tenths of the seed-matched pairs
``unchanged``   neither, and A's spread is within the bound
``unresolved``  A's own runs spread wider than the bound, so the bound
                cannot be checked — unless every run of B reads better
                (``better``) or worse by more than the bound (``worse``)
                than every run of A

The exit status is 1 when any pair is ``worse``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from typing import Any

SPEC = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def values_by_pair(result_file: dict[str, Any]) -> dict[tuple[str, str], list[float]]:
    """``{(workload, metric): [value per untraced run, in seed order]}``."""
    pairs: dict[tuple[str, str], list[float]] = {}
    for run in sorted(result_file["runs"], key=lambda r: r["seed"]):
        if run["trace"]:
            continue
        for metric, entry in run["metrics"].items():
            pairs.setdefault((run["workload"], metric), []).append(entry["value"])
    return pairs


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median; infinite for a
    single run, whose spread is unknown."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float, float]:
    """``(verdict, gain, spread of A)``; ``gain`` is B's relative
    improvement over A's median, positive when B is better."""
    sign = 1.0 if better == "higher" else -1.0
    base = statistics.median(a)
    gain = sign * (statistics.median(b) - base) / abs(base)
    noise = spread(a)
    b_always_better = min(sign * v for v in b) > max(sign * v for v in a)
    b_always_worse = max(sign * v for v in b) < min(sign * v for v in a)
    if noise > bound:
        if b_always_better:
            return "better", gain, noise
        if b_always_worse and gain < -bound:
            return "worse", gain, noise
        return "unresolved", gain, noise
    if gain < -bound:
        return "worse", gain, noise
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    if gain > noise and wins >= 0.9 * len(pairs):
        return "better", gain, noise
    return "unchanged", gain, noise


def compare(a_file: dict[str, Any], b_file: dict[str, Any], spec: dict[str, Any]) -> list[dict[str, Any]]:
    a_pairs, b_pairs = values_by_pair(a_file), values_by_pair(b_file)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a_pairs or key not in b_pairs:
                continue
            outcome, gain, noise = verdict(
                a_pairs[key], b_pairs[key], metric["better"], metric["bound"]
            )
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "a_median": statistics.median(a_pairs[key]),
                    "b_median": statistics.median(b_pairs[key]),
                    "gain": gain,
                    "a_spread": noise,
                    "bound": metric["bound"],
                    "verdict": outcome,
                }
            )
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_file, b_file = (json.loads(pathlib.Path(path).read_text()) for path in argv)
    rows = compare(a_file, b_file, json.loads(SPEC.read_text()))
    print(
        f"{'workload':18s} {'metric':12s} {'A median':>12s} {'B median':>12s} "
        f"{'gain':>8s} {'A spread':>9s} {'bound':>6s}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:18s} {row['metric']:12s} {row['a_median']:12.5g} "
            f"{row['b_median']:12.5g} {row['gain']:+8.1%} {row['a_spread']:9.1%} "
            f"{row['bound']:6.0%}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
