"""Op-level performance counters for the kernel hot path.

A process-wide registry of named :class:`Counter` records — call
counts, cumulative seconds, and workspace bytes allocated vs. reused —
fed by the instrumented kernels (``conv2d``, ``im2col``, ``col2im``,
the fused conv epilogue, :class:`~repro.core.inference.InferencePlan`)
and by every :class:`~repro.tensor.workspace.Workspace` arena.

Timing is **off by default** so the hot path pays a single attribute
check per instrumented call; enable it around a region of interest::

    from repro.tensor import perf

    perf.reset()
    with perf.collecting():
        run_workload()
    print(perf.format_report())

Byte accounting from workspaces is recorded whenever collection is on.
Counters accumulate per process, but they no longer die with a child:
ranks running under the process execution backend ship their snapshot
to the parent at shutdown (and on abort) through
:mod:`repro.obs.aggregate`, which folds it back in here via
:func:`merge_snapshot` — so ``snapshot()`` in the driver covers every
rank on every backend.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "Counter",
    "perf_enabled",
    "enable",
    "disable",
    "reset",
    "collecting",
    "record_call",
    "record_bytes",
    "timed",
    "snapshot",
    "merge_snapshot",
    "format_report",
]


@dataclass
class Counter:
    """Aggregated statistics for one instrumented name."""

    calls: int = 0
    seconds: float = 0.0
    bytes_allocated: int = 0
    bytes_reused: int = 0

    def merge(self, other: "Counter") -> None:
        self.calls += other.calls
        self.seconds += other.seconds
        self.bytes_allocated += other.bytes_allocated
        self.bytes_reused += other.bytes_reused


_lock = threading.Lock()
_counters: dict[str, Counter] = {}
_enabled: bool = False


def perf_enabled() -> bool:
    """Whether the registry is currently recording."""
    return _enabled


def enable() -> None:
    """Start recording into the registry."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Stop recording (existing counters are kept until :func:`reset`)."""
    global _enabled
    _enabled = False


def reset() -> None:
    """Drop every counter."""
    with _lock:
        _counters.clear()


@contextlib.contextmanager
def collecting() -> Iterator[None]:
    """Enable the registry for the duration of the ``with`` block."""
    previous = _enabled
    enable()
    try:
        yield
    finally:
        if not previous:
            disable()


def _counter(name: str) -> Counter:
    counter = _counters.get(name)
    if counter is None:
        counter = _counters.setdefault(name, Counter())
    return counter


def record_call(name: str, seconds: float) -> None:
    """Account one timed call under ``name`` (no-op while disabled)."""
    if not _enabled:
        return
    with _lock:
        counter = _counter(name)
        counter.calls += 1
        counter.seconds += seconds


def record_bytes(name: str, nbytes: int, reused: bool) -> None:
    """Account one workspace buffer hand-out (no-op while disabled)."""
    if not _enabled:
        return
    with _lock:
        counter = _counter(name)
        if reused:
            counter.bytes_reused += nbytes
        else:
            counter.bytes_allocated += nbytes


@contextlib.contextmanager
def _timing(name: str) -> Iterator[None]:
    start = time.perf_counter()
    try:
        yield
    finally:
        record_call(name, time.perf_counter() - start)


#: What :func:`timed` hands out while disabled: one shared, stateless
#: object, so an instrumented block costs two no-op method calls and
#: no generator.
_NOT_TIMED = contextlib.nullcontext()


def timed(name: str) -> contextlib.AbstractContextManager[None]:
    """Time the block under ``name`` (near-zero cost while disabled)."""
    return _timing(name) if _enabled else _NOT_TIMED


def snapshot() -> dict[str, Counter]:
    """A point-in-time copy of every counter (safe to keep)."""
    with _lock:
        return {
            name: Counter(c.calls, c.seconds, c.bytes_allocated, c.bytes_reused)
            for name, c in _counters.items()
        }


def merge_snapshot(counters: dict[str, Counter]) -> None:
    """Fold another registry's snapshot into this one.

    The cross-process aggregation entry point: the process execution
    backend ships each rank's ``snapshot()`` to the parent, which
    merges them here.  Works regardless of the enabled flag (merging
    happens after the measured region ended).
    """
    with _lock:
        for name, counter in counters.items():
            _counter(name).merge(counter)


def _human_bytes(nbytes: int) -> str:
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024.0
    return f"{value:.1f}GiB"  # pragma: no cover - unreachable


def format_report(counters: dict[str, Counter] | None = None) -> str:
    """Render the registry (or a snapshot) as an aligned text table."""
    counters = snapshot() if counters is None else counters
    if not counters:
        return "perf counters: no records (enable the registry first)"
    lines = [
        f"{'op':<28} {'calls':>8} {'seconds':>10} {'alloc':>10} {'reused':>10}"
    ]
    for name in sorted(counters):
        c = counters[name]
        lines.append(
            f"{name:<28} {c.calls:>8} {c.seconds:>10.4f} "
            f"{_human_bytes(c.bytes_allocated):>10} {_human_bytes(c.bytes_reused):>10}"
        )
    return "\n".join(lines)
