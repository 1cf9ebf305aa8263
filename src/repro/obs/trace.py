"""Low-overhead span tracer: the event source of :mod:`repro.obs`.

A process-wide buffer of completed :class:`Span` records (name,
category, rank, wall-clock start, duration, small ``args`` dict) and
:class:`Metric` samples, fed by instrumentation hooks across the stack
(the MPI runtime, the training engine, the inference rollout).  Like
:mod:`repro.obs.metrics` the tracer is **off by default** and every
instrumented call pays a single module-attribute check while disabled::

    from repro.obs import trace

    trace.reset()
    with trace.tracing():
        run_workload()
    print(trace.spans()[-1])

``trace.span`` works both as a context manager and as a decorator::

    with trace.span("conv2d.forward", cat="compute", grid=256):
        ...

    @trace.span("rollout.step", cat="rollout")
    def step(...): ...

Timestamps are recorded against ``time.perf_counter`` and stored as
*wall-clock* seconds via a per-process anchor captured at import, so
spans produced in different OS processes (the process execution
backend) land on one shared timeline and can be merged without
re-basing — see :mod:`repro.obs.aggregate`.

Ranks are carried through a thread-local context (:func:`set_rank` /
:func:`rank_scope`), set by the MPI launcher for thread ranks, by the
process-backend worker for process ranks, and by the serial execution
path — every span knows which rank produced it, on every backend.

This module is intentionally stdlib-only: it is imported by the lowest
layers (``repro.mpi.api``) and must never create an import cycle.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = [
    "Span",
    "Metric",
    "clock",
    "enabled",
    "enable",
    "disable",
    "reset",
    "tracing",
    "span",
    "record",
    "metric",
    "spans",
    "metrics",
    "dropped",
    "extend",
    "current_rank",
    "set_rank",
    "rank_scope",
    "wall_time",
]

#: The sanctioned monotonic high-resolution clock.  Call sites outside
#: ``repro.obs`` / ``benchmarks/`` must use this
#: (or a span) instead of ``time.perf_counter`` — enforced by REP008.
clock = time.perf_counter

#: Wall/perf anchor pair: spans are timed with the monotonic clock and
#: stored as wall-clock seconds so buffers from different processes
#: share one timeline (``time.time`` is the same clock machine-wide).
_ANCHOR_WALL = time.time()
_ANCHOR_PERF = time.perf_counter()

#: Hard cap on buffered events; beyond it new records are counted in
#: ``dropped()`` instead of growing memory without bound.
MAX_EVENTS = 1_000_000


@dataclass(slots=True)
class Span:
    """One completed, timed region."""

    name: str
    cat: str
    rank: int | None
    tid: int
    #: wall-clock start, seconds since the epoch
    ts: float
    #: duration in seconds
    dur: float
    args: dict[str, Any] | None = None

    @property
    def end(self) -> float:
        return self.ts + self.dur


@dataclass(slots=True)
class Metric:
    """One sampled scalar (loss, grad norm, throughput, ...)."""

    name: str
    rank: int | None
    ts: float
    value: float


class _RankContext(threading.local):
    #: The class attribute is what a thread with no rank bound reads:
    #: a plain attribute lookup, not ``getattr``'s AttributeError path.
    rank: int | None = None


_lock = threading.Lock()
_tls = _RankContext()
_enabled: bool = False
_spans: list[Span] = []
_metrics: list[Metric] = []
_dropped: int = 0


def wall_time(perf_t: float) -> float:
    """Convert a ``clock()`` reading to wall-clock epoch seconds."""
    return _ANCHOR_WALL + (perf_t - _ANCHOR_PERF)


# ----------------------------------------------------------------------
# Enable / disable
# ----------------------------------------------------------------------
def enabled() -> bool:
    """Whether the tracer is currently recording."""
    return _enabled


def enable() -> None:
    """Start recording spans and metrics."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Stop recording (buffered events are kept until :func:`reset`)."""
    global _enabled
    _enabled = False


def reset() -> None:
    """Drop every buffered span and metric."""
    global _dropped
    with _lock:
        _spans.clear()
        _metrics.clear()
        _dropped = 0


@contextlib.contextmanager
def tracing() -> Iterator[None]:
    """Enable the tracer for the duration of the ``with`` block."""
    previous = _enabled
    enable()
    try:
        yield
    finally:
        if not previous:
            disable()


# ----------------------------------------------------------------------
# Rank context
# ----------------------------------------------------------------------
def current_rank() -> int | None:
    """The MPI rank owning the calling thread (``None`` outside ranks)."""
    return _tls.rank


def set_rank(rank: int | None) -> None:
    """Bind the calling thread to ``rank`` (used by the launchers)."""
    _tls.rank = rank


@contextlib.contextmanager
def rank_scope(rank: int | None) -> Iterator[None]:
    """Temporarily bind the calling thread to ``rank`` (serial mode)."""
    previous = current_rank()
    _tls.rank = rank
    try:
        yield
    finally:
        _tls.rank = previous


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
def _append_span(entry: Span) -> None:
    global _dropped
    with _lock:
        if len(_spans) >= MAX_EVENTS:
            _dropped += 1
            return
        _spans.append(entry)


def record(
    name: str,
    cat: str,
    start: float,
    dur: float | None = None,
    **args: Any,
) -> None:
    """Append a completed span timed by the caller.

    ``start`` is a ``clock()`` reading; ``dur`` defaults to the time
    elapsed since it.  No-op while the tracer is disabled.  This is the
    hot-path entry point for instrumentation that wants one branch and
    no context-manager object (the MPI send/recv hooks).
    """
    if not _enabled:
        return
    if dur is None:
        dur = clock() - start
    _append_span(
        Span(name, cat, current_rank(), threading.get_ident(), wall_time(start), dur, args or None)
    )


def metric(name: str, value: float) -> None:
    """Sample a scalar under ``name`` (no-op while disabled)."""
    global _dropped
    if not _enabled:
        return
    entry = Metric(name, current_rank(), wall_time(clock()), float(value))
    with _lock:
        if len(_metrics) >= MAX_EVENTS:
            _dropped += 1
            return
        _metrics.append(entry)


class span(contextlib.ContextDecorator):
    """Context manager / decorator timing a region into the buffer.

    ``cat`` groups spans for the compute-vs-communication summary (see
    :func:`repro.obs.export.summary`); extra keyword arguments become
    the span's ``args``.
    """

    __slots__ = ("name", "cat", "args", "_start")

    def __init__(self, name: str, cat: str = "app", **args: Any):
        self.name = name
        self.cat = cat
        self.args = args

    def _recreate_cm(self) -> "span":
        # Decorator usage: a fresh instance per call, so concurrent
        # threads never share ``_start``.
        return span(self.name, self.cat, **self.args)

    def __enter__(self) -> "span":
        self._start = clock() if _enabled else None
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        start = self._start
        if start is None or not _enabled:
            return False
        dur = clock() - start
        _append_span(
            Span(
                self.name,
                self.cat,
                current_rank(),
                threading.get_ident(),
                wall_time(start),
                dur,
                dict(self.args) if self.args else None,
            )
        )
        return False


# ----------------------------------------------------------------------
# Reading / merging
# ----------------------------------------------------------------------
def spans() -> list[Span]:
    """A point-in-time copy of the span buffer (safe to keep)."""
    with _lock:
        return list(_spans)


def metrics() -> list[Metric]:
    """A point-in-time copy of the metric buffer."""
    with _lock:
        return list(_metrics)


def dropped() -> int:
    """Events discarded because the buffer hit :data:`MAX_EVENTS`."""
    return _dropped


def extend(new_spans: list[Span], new_metrics: list[Metric] = ()) -> None:
    """Merge externally produced events (another rank's buffer) in.

    Works regardless of the enabled flag: aggregation happens at
    shutdown, after the traced region ended.  Timestamps are already
    wall-clock, so no re-basing is needed.
    """
    global _dropped
    with _lock:
        for entry in new_spans:
            if len(_spans) >= MAX_EVENTS:
                _dropped += 1
                continue
            _spans.append(entry)
        for entry in new_metrics:
            if len(_metrics) >= MAX_EVENTS:
                _dropped += 1
                continue
            _metrics.append(entry)
