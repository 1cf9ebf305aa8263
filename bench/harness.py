"""Measurement harness shared by every workload.

Load is closed-loop with one client: the next operation starts only
after the previous one returned and was checked.  Everything here is
benchmark-owned — the program under ``src/repro`` only ever receives
the inputs the workloads generate from ``--seed``.
"""

from __future__ import annotations

import contextlib
import gc
import json
import multiprocessing
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from .env import ALLOCATOR_ENV, PINNED_ENV, RESULTS, ROOT

#: How often ``setup`` is repeated in one untraced run; ``setup_s``
#: reports the median so one slow set-up does not decide the number.
SETUP_REPEATS = 3

#: Floating-range guard on the last frame of every rollout (see
#: ``workloads/rollout.py`` for why it exists).
RANGE_GUARD = (1e-100, 1e100)

SHM_DIR = pathlib.Path("/dev/shm")

#: ``{metric name: (value, unit)}``
Metrics = dict[str, tuple[float, str]]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans recorded around calls *into* the program.

    A span is ``{name, start, end, parent, op, rank}``; ``parent`` is the
    index of the enclosing span and ``op`` the operation it belongs to.
    Spans live in memory and are written once, at exit.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "rank": None,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def absorb(self, spans: list[dict[str, Any]], rank: int) -> None:
        """Adopt spans recorded by a rank process under the current span
        (``perf_counter`` is one system-wide monotonic clock on Linux)."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for record in spans:
            adopted = dict(record, rank=rank, op=self.op)
            adopted["parent"] = parent if record["parent"] is None else base + record["parent"]
            self.spans.append(adopted)

    def durations(self, name: str) -> list[float]:
        """Seconds of every finished span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name and s["end"]]

    def write(self, path: pathlib.Path, manifest: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"manifest": manifest, "spans": self.spans}))


class NullTracer:
    """The tracing-off path: one shared no-op context manager."""

    op: int | None = None
    _noop = contextlib.nullcontext()

    def span(self, name: str) -> contextlib.nullcontext:
        return self._noop


UNTRACED = NullTracer()


# ----------------------------------------------------------------------
# Operations and checks
# ----------------------------------------------------------------------
@dataclass
class OpResult:
    """Outcome of one operation of a workload."""

    #: seconds inside the program's ``train()`` / ``rollout()`` call
    inner_s: float
    #: training samples or rollout steps that call processed
    work: float
    #: operations attempted (a pipeline run attempts one per stage)
    attempted: int = 1
    #: one line per failed or incorrect operation
    failures: list[str] = field(default_factory=list)
    #: workload-specific numbers the traced run turns into layer metrics
    detail: dict[str, Any] = field(default_factory=dict)


def check_rollout(result: Any, steps: int, messages: int, volume: int) -> list[str]:
    """Correctness of one ``RolloutResult`` against the closed forms."""
    failures = []
    trajectory = result.trajectory
    if trajectory.shape[0] != steps + 1 or not np.isfinite(trajectory).all():
        failures.append("rollout: trajectory truncated or not finite")
    else:
        peak = float(np.abs(trajectory[-1]).max())
        if not RANGE_GUARD[0] <= peak <= RANGE_GUARD[1]:
            failures.append(f"rollout: final |u|max {peak:.3e} left {RANGE_GUARD}")
    if result.messages_sent != messages or result.bytes_sent != volume:
        failures.append(
            f"rollout: sent {result.messages_sent} msgs / {result.bytes_sent} B, "
            f"closed form {messages} / {volume}"
        )
    return failures


def shm_segments() -> set[str]:
    """Names of the ``multiprocessing.shared_memory`` segments present."""
    if not SHM_DIR.is_dir():
        return set()
    return {entry.name for entry in SHM_DIR.glob("psm_*")}


def leftovers(segments_before: set[str]) -> list[str]:
    """What a workload must not leave behind: shm segments, children."""
    failures = []
    leaked = sorted(shm_segments() - segments_before)
    if leaked:
        failures.append(f"leaked shared-memory segment(s): {', '.join(leaked)}")
    alive = [child.name for child in multiprocessing.active_children()]
    if alive:
        failures.append(f"live child process(es): {', '.join(alive)}")
    return failures


def scratch_file(suffix: str) -> pathlib.Path:
    """A per-process scratch path inside the checkout (never ``/tmp``)."""
    directory = RESULTS / "tmp"
    directory.mkdir(parents=True, exist_ok=True)
    return directory / f"{os.getpid()}{suffix}"


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def median_low(values) -> float:
    """The lower median — an observed value.  With the four operations of
    a ``pipeline_euler64`` run, the first of them on cold memory, the
    interpolating median would average the cold one's neighbour in."""
    return float(statistics.median_low(values))


def tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile that still has
    ten samples beyond it (choosing-metrics §1); the maximum when the
    sample is too small for any."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return 100.0, ordered[-1]
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def repeat(fn: Callable[[], Any], budget_s: float, min_reps: int = 3, max_reps: int = 200) -> list[float]:
    """Seconds of repeated calls to ``fn`` after one untimed warm-up call,
    until ``budget_s`` is spent (at least ``min_reps`` samples)."""
    fn()
    samples: list[float] = []
    spent = 0.0
    while len(samples) < min_reps or (spent < budget_s and len(samples) < max_reps):
        seconds, _ = timed(fn)
        samples.append(seconds)
        spent += seconds
    return samples


def peak_rss_mb() -> float:
    """High-water resident set of this process and of its reaped
    children (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------------
# The untraced run
# ----------------------------------------------------------------------
def run_ops(
    op: Callable[[Any], OpResult], tracers: tuple[Any, ...], seconds: float, min_rounds: int = 1
) -> list[tuple[list[float], list[OpResult]]]:
    """Closed loop: call ``op`` once per tracer in turn until ``seconds``
    have passed (at least ``min_rounds`` rounds); returns ``(walls,
    results)`` per tracer.  Garbage of the previous operation is collected
    outside the timed region so one operation does not pay for another's
    cycles."""
    runs: list[tuple[list[float], list[OpResult]]] = [([], []) for _ in tracers]
    order = list(zip(tracers, runs))
    start = time.perf_counter()
    while len(runs[0][0]) < min_rounds or time.perf_counter() - start < seconds:
        for tracer, (walls, results) in order:
            gc.collect()
            tracer.op = len(results)
            wall, result = timed(lambda: op(tracer))
            walls.append(wall)
            results.append(result)
        order.reverse()  # ABBA: neither side always runs second
    return runs


def summarize(results: list[OpResult], extra_failures: list[str]) -> tuple[int, int, bool]:
    attempted = sum(r.attempted for r in results)
    failures = [line for r in results for line in r.failures] + extra_failures
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    failed = min(len(failures), attempted)
    return attempted, failed, not failures


def measure_untraced(workload: Any, seed: int, seconds: float, import_s: float) -> dict[str, Any]:
    """End-to-end metrics of ``workload`` with tracing off."""
    segments_before = shm_segments()
    setups = []
    for _ in range(SETUP_REPEATS):
        state = None  # release the previous set-up before building the next
        gc.collect()
        setup_s, state = timed(lambda: workload.setup(workload.SHAPE, seed))
        setups.append(setup_s)
    [(walls, results)] = run_ops(lambda tracer: workload.op(state, tracer), (UNTRACED,), seconds)
    attempted, failed, correct = summarize(
        results, workload.verify(state, results) + leftovers(segments_before)
    )
    metrics: Metrics = {
        "setup_s": (import_s + median(setups), "s"),
        "op_ms_p50": (1e3 * median_low(walls), "ms"),
        "work_per_s": (results[0].work / median_low(r.inner_s for r in results), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return result_record(correct, attempted, failed, metrics)


def result_record(correct: bool, attempted: int, failed: int, metrics: Metrics) -> dict[str, Any]:
    """The driver-contract result object."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


# ----------------------------------------------------------------------
# Run manifest
# ----------------------------------------------------------------------
def llc_bytes() -> int | None:
    """Size of the largest cache level ``cpu0`` reports, if any."""
    sizes = []
    for entry in pathlib.Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = entry.read_text().strip()
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1])
        sizes.append(int(text[:-1]) * scale if scale else int(text))
    return max(sizes) if sizes else None


#: Upper size of each ``np.copyto`` array of the bandwidth probe.  The
#: 4 x LLC rule would ask for 2 x 1 GiB on a VM that reports its host's
#: 260 MiB L3, and a first touch of fresh memory there costs ~6 s/GiB;
#: the manifest states both sizes.
COPY_ARRAY_CAP = 128 << 20


def copy_array_bytes() -> int:
    return min(4 * (llc_bytes() or 32 << 20), COPY_ARRAY_CAP)


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else None


def _blas_version() -> str | None:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    name, version = blas.get("name"), blas.get("version")
    return f"{name} {version}" if name else None


def manifest(workload: Any = None, seed: int | None = None, **extra: Any) -> dict[str, Any]:
    """The joinable header of every result and trace file (ROADMAP aim 4)."""
    from repro.tensor import get_precision

    header: dict[str, Any] = {
        "git_sha": _git_sha(),
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(),
        "thread_env": {key: os.environ.get(key) for key in PINNED_ENV},
        "allocator_env": {key: os.environ.get(key) for key in ALLOCATOR_ENV},
        "repro_gemm_threads": os.environ.get("REPRO_GEMM_THREADS"),
        "precision": get_precision(),
        "llc_bytes": llc_bytes(),
        "copy_array_bytes": copy_array_bytes(),
        "seed": seed,
    }
    if workload is not None:
        shape = workload.SHAPE
        header.update(
            workload=workload.NAME,
            backend="processes" if shape.ranks > 1 else "serial",
            ranks=shape.ranks,
            pgrid=list(shape.pgrid),
            shape=shape.to_dict(),
        )
    header.update(extra)
    return header
