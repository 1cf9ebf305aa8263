"""Rank-aware time-series metrics: counters, gauges, histograms.

Where :mod:`repro.obs.trace` answers "what happened in this one traced
run", this module answers "how is the system behaving" — cumulative
counters (bytes sent), point-in-time gauges (loss, queue depth), and
latency :class:`Histogram` instruments with **fixed log-spaced bucket
boundaries**, so p50/p95/p99 are derivable from bucket counts without
ever storing samples.  Like the tracer it is **off by default** and
every instrumented call pays one module-attribute check while
disabled::

    from repro.obs import metrics

    metrics.reset()
    with metrics.collecting():
        run_workload()
    snap = metrics.snapshot()  # → exporters in repro.obs.metrics_export

Instruments are created through the registry factories
:func:`counter` / :func:`gauge` / :func:`histogram`, which return
process-wide singletons keyed by name — the sanctioned construction
point outside ``src/repro/obs`` (REP016).  Instrumented modules cache
the instrument at import time and call ``.inc()`` / ``.set()`` /
``.observe()`` on the hot path::

    _STEP_SECONDS = metrics.histogram("engine.step_seconds")
    ...
    with _STEP_SECONDS.time():  # or _STEP_SECONDS.observe(dur)
        step()

Every recorded value is tagged with the thread-local rank context from
:mod:`repro.obs.trace` (one shared context: a rank bound for tracing is
bound for metrics).  :func:`snapshot` produces a pure-picklable dict
that ships through :class:`repro.obs.aggregate.TraceBundle` so
per-rank metrics survive crashed ranks, and :func:`merge_snapshot`
folds a worker's snapshot into the parent registry (counters and
histogram buckets add, gauges overwrite, rank-``None`` values are
re-attributed to the worker's rank).

The **heartbeat** is the liveness half: :func:`heartbeat` stamps the
calling rank's last-alive wall time into the ``repro.heartbeat`` gauge
and an optional out-of-band sink (a shared array on the process
backend), so a silent rank becomes a detected stall in the supervisor
instead of a 120-second deadlock timeout.

This module is intentionally stdlib-only: it is imported by the lowest
layers (``repro.mpi.api``, the ``repro.tensor`` kernels and their
workspace arenas) and must never create an import cycle.
"""

from __future__ import annotations

import contextlib
import threading
import time
from bisect import bisect_left
from typing import Any, Callable, Iterator

from . import trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "counter",
    "gauge",
    "histogram",
    "instruments",
    "enabled",
    "enable",
    "disable",
    "reset",
    "collecting",
    "snapshot",
    "merge_snapshot",
    "quantile_from_buckets",
    "heartbeat",
    "heartbeat_active",
    "set_heartbeat_sink",
    "DEFAULT_BOUNDS",
    "HEARTBEAT_METRIC",
]

#: Default histogram bucket upper bounds: 8 log-spaced buckets per
#: decade spanning 1 µs .. 100 s (``10 ** (-6 + i / 8)``).  A sample in
#: bucket *i* is known to within ~33% (one bucket width), which bounds
#: the error of any derived quantile — accurate enough to tell a 2 ms
#: step from a 3 ms one without storing a single sample.
DEFAULT_BOUNDS: tuple[float, ...] = tuple(10.0 ** (-6 + i / 8) for i in range(65))

#: Gauge holding each rank's last heartbeat (wall-clock seconds).
HEARTBEAT_METRIC = "repro.heartbeat"

_lock = threading.Lock()
_enabled: bool = False
_instruments: dict[str, "Counter | Gauge | Histogram"] = {}
_heartbeat_sink: Callable[[int | None, float], None] | None = None


# ----------------------------------------------------------------------
# Enable / disable
# ----------------------------------------------------------------------
def enabled() -> bool:
    """Whether the registry is currently recording."""
    return _enabled


def enable() -> None:
    """Start recording metric updates."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Stop recording (accumulated values are kept until :func:`reset`)."""
    global _enabled
    _enabled = False


def reset() -> None:
    """Clear every instrument's recorded values.

    Instrument *identity* is preserved: module-level cached references
    (``_SENT = metrics.counter("mpi.bytes_sent")``) stay live across
    resets, mirroring how :func:`trace.reset` keeps instrumentation
    hooks valid.
    """
    with _lock:
        for instrument in _instruments.values():
            instrument._clear()


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


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class Counter:
    """A monotonically increasing per-rank total (events, bytes)."""

    __slots__ = ("name", "_values")

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self._values: dict[int | None, float] = {}

    def _clear(self) -> None:
        self._values.clear()

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` to the calling rank's total (no-op while off)."""
        if not _enabled:
            return
        rank = trace.current_rank()
        with _lock:
            self._values[rank] = self._values.get(rank, 0) + amount

    def value(self, rank: int | None = None) -> float:
        """The accumulated total for ``rank`` (0 when never incremented)."""
        with _lock:
            return self._values.get(rank, 0)

    def total(self) -> float:
        """The accumulated total across every rank."""
        with _lock:
            return sum(self._values.values())


class Gauge:
    """A per-rank point-in-time value (loss, queue depth, heartbeat).

    With ``forward_to_trace=True`` (the default) every :meth:`set` also
    emits a :func:`trace.metric` sample *before* checking the metrics
    flag, so call sites migrated from ad-hoc trace metric events keep
    producing byte-identical trace output — the tracer applies its own
    enabled check.  High-frequency internal gauges (heartbeat, mailbox
    depth) opt out to keep trace buffers clean.
    """

    __slots__ = ("name", "forward", "_values")

    kind = "gauge"

    def __init__(self, name: str, forward_to_trace: bool = True):
        self.name = name
        self.forward = forward_to_trace
        self._values: dict[int | None, float] = {}

    def _clear(self) -> None:
        self._values.clear()

    def set(self, value: float) -> None:
        """Record the calling rank's current value."""
        if self.forward:
            trace.metric(self.name, value)
        if not _enabled:
            return
        rank = trace.current_rank()
        with _lock:
            self._values[rank] = float(value)

    def value(self, rank: int | None = None) -> float | None:
        """The last value set for ``rank`` (``None`` when never set)."""
        with _lock:
            return self._values.get(rank)


class _HistogramState:
    """Per-rank bucket counts plus count/sum/min/max running stats."""

    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self, num_buckets: int):
        self.counts = [0] * num_buckets
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")


class Histogram:
    """A per-rank latency/size distribution over fixed log buckets.

    Bucket *i* counts samples with ``bounds[i-1] < x <= bounds[i]``;
    one final overflow bucket catches samples above the last bound.
    Quantiles come from :meth:`quantile` via cumulative counts with
    linear interpolation inside the bucket.
    """

    __slots__ = ("name", "bounds", "_ranks")

    kind = "histogram"

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_BOUNDS):
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(self.bounds) or len(set(self.bounds)) != len(self.bounds):
            raise ValueError(f"histogram {name!r} bounds must be strictly increasing")
        self._ranks: dict[int | None, _HistogramState] = {}

    def _clear(self) -> None:
        self._ranks.clear()

    def observe(self, value: float) -> None:
        """Record one sample for the calling rank (no-op while off)."""
        if not _enabled:
            return
        value = float(value)
        rank = trace.current_rank()
        index = bisect_left(self.bounds, value)
        with _lock:
            state = self._ranks.get(rank)
            if state is None:
                state = self._ranks[rank] = _HistogramState(len(self.bounds) + 1)
            state.counts[index] += 1
            state.count += 1
            state.sum += value
            if value < state.min:
                state.min = value
            if value > state.max:
                state.max = value

    def time(self) -> contextlib.AbstractContextManager[Any]:
        """Observe the seconds the ``with`` block takes; while the
        registry is off, the one shared do-nothing context."""
        return _Timing(self) if _enabled else _NOT_TIMED

    def count(self, rank: int | None = None) -> int:
        """Number of samples recorded for ``rank``."""
        with _lock:
            state = self._ranks.get(rank)
            return state.count if state else 0

    def quantile(self, q: float, rank: int | None = None) -> float | None:
        """The ``q``-quantile (0..1) for ``rank``, ``None`` when empty."""
        with _lock:
            state = self._ranks.get(rank)
            if state is None or state.count == 0:
                return None
            counts = list(state.counts)
            lo, hi = state.min, state.max
        return quantile_from_buckets(counts, self.bounds, q, lo=lo, hi=hi)


class _Timing:
    """One timed block of :meth:`Histogram.time` (a class, not a
    generator: two plain method calls per block)."""

    __slots__ = ("histogram", "start")

    def __init__(self, histogram: Histogram):
        self.histogram = histogram

    def __enter__(self) -> None:
        self.start = trace.clock()

    def __exit__(self, *exc: Any) -> bool:
        self.histogram.observe(trace.clock() - self.start)
        return False


#: What :meth:`Histogram.time` hands out while the registry is off.
_NOT_TIMED = contextlib.nullcontext()


def quantile_from_buckets(
    counts: list[int],
    bounds: tuple[float, ...] | list[float],
    q: float,
    lo: float | None = None,
    hi: float | None = None,
) -> float | None:
    """Derive a quantile from cumulative log-bucket counts.

    Walks the cumulative distribution to the bucket containing rank
    ``q * total`` and interpolates linearly inside it.  The first
    bucket's lower edge is 0 and the overflow bucket is clamped to the
    observed ``hi`` (or the last bound when unknown).
    """
    total = sum(counts)
    if total == 0:
        return None
    q = min(max(q, 0.0), 1.0)
    target = q * total
    cumulative = 0
    for index, bucket_count in enumerate(counts):
        cumulative += bucket_count
        if cumulative >= target and bucket_count:
            lower = 0.0 if index == 0 else bounds[index - 1]
            if index < len(bounds):
                upper = bounds[index]
            else:
                upper = hi if hi is not None and hi > lower else lower
            fraction = (target - (cumulative - bucket_count)) / bucket_count
            value = lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
            if lo is not None:
                value = max(value, lo)
            if hi is not None:
                value = min(value, hi)
            return value
    return hi if hi is not None else (bounds[-1] if bounds else None)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def _get(name: str, kind: str, factory: Callable[[], Any]):
    with _lock:
        instrument = _instruments.get(name)
        if instrument is None:
            instrument = _instruments[name] = factory()
        elif instrument.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {instrument.kind}, not {kind}"
            )
        return instrument


def counter(name: str) -> Counter:
    """The process-wide :class:`Counter` registered under ``name``."""
    return _get(name, "counter", lambda: Counter(name))


def gauge(name: str, forward_to_trace: bool = True) -> Gauge:
    """The process-wide :class:`Gauge` registered under ``name``."""
    instrument = _get(name, "gauge", lambda: Gauge(name, forward_to_trace))
    return instrument


def histogram(name: str, bounds: tuple[float, ...] = DEFAULT_BOUNDS) -> Histogram:
    """The process-wide :class:`Histogram` registered under ``name``."""
    return _get(name, "histogram", lambda: Histogram(name, bounds))


def instruments() -> dict[str, "Counter | Gauge | Histogram"]:
    """A point-in-time copy of the registry (name → instrument)."""
    with _lock:
        return dict(_instruments)


# ----------------------------------------------------------------------
# Snapshot / merge (the TraceBundle payload)
# ----------------------------------------------------------------------
def snapshot() -> dict[str, Any]:
    """A pure-picklable copy of every instrument holding data.

    Schema (``repro-metrics-v1``)::

        {name: {"kind": "counter"|"gauge", "values": {rank: v}}}
        {name: {"kind": "histogram", "bounds": [...],
                "ranks": {rank: {"counts": [...], "count": n,
                                 "sum": s, "min": m, "max": M}}}}

    Instruments with no recorded values are omitted, so an idle
    registry snapshots to ``{}`` (and a :class:`TraceBundle` carrying
    it stays falsy).
    """
    out: dict[str, Any] = {}
    with _lock:
        for name, instrument in _instruments.items():
            if instrument.kind in ("counter", "gauge"):
                if instrument._values:
                    out[name] = {
                        "kind": instrument.kind,
                        "values": dict(instrument._values),
                    }
                    if instrument.kind == "gauge":
                        out[name]["forward"] = instrument.forward
            else:
                if instrument._ranks:
                    out[name] = {
                        "kind": "histogram",
                        "bounds": list(instrument.bounds),
                        "ranks": {
                            rank: {
                                "counts": list(state.counts),
                                "count": state.count,
                                "sum": state.sum,
                                "min": state.min,
                                "max": state.max,
                            }
                            for rank, state in instrument._ranks.items()
                        },
                    }
    return out


def merge_snapshot(snap: dict[str, Any], default_rank: int | None = None) -> None:
    """Fold a worker rank's :func:`snapshot` into this registry.

    Counters and histogram buckets **add**, gauges **overwrite** (last
    writer wins — they are point-in-time values).  Values recorded
    under rank ``None`` in the worker are re-attributed to
    ``default_rank``, mirroring :func:`repro.obs.aggregate.absorb`.
    Works regardless of the enabled flag: aggregation happens at
    shutdown, after the collected region ended.
    """
    for name, payload in snap.items():
        kind = payload.get("kind")
        if kind == "counter":
            instrument = counter(name)
            with _lock:
                for rank, value in payload["values"].items():
                    rank = default_rank if rank is None else rank
                    instrument._values[rank] = instrument._values.get(rank, 0) + value
        elif kind == "gauge":
            instrument = gauge(name, forward_to_trace=payload.get("forward", True))
            with _lock:
                for rank, value in payload["values"].items():
                    rank = default_rank if rank is None else rank
                    instrument._values[rank] = value
        elif kind == "histogram":
            instrument = histogram(name, bounds=tuple(payload["bounds"]))
            if list(instrument.bounds) != [float(b) for b in payload["bounds"]]:
                raise ValueError(
                    f"histogram {name!r} bucket bounds differ between ranks"
                )
            with _lock:
                for rank, data in payload["ranks"].items():
                    rank = default_rank if rank is None else rank
                    state = instrument._ranks.get(rank)
                    if state is None:
                        state = instrument._ranks[rank] = _HistogramState(
                            len(instrument.bounds) + 1
                        )
                    for index, bucket_count in enumerate(data["counts"]):
                        state.counts[index] += bucket_count
                    state.count += data["count"]
                    state.sum += data["sum"]
                    state.min = min(state.min, data["min"])
                    state.max = max(state.max, data["max"])
        else:  # pragma: no cover - corrupt snapshot
            raise ValueError(f"metric {name!r} has unknown kind {kind!r}")


# ----------------------------------------------------------------------
# Heartbeat
# ----------------------------------------------------------------------
_heartbeat_gauge: Gauge | None = None


def heartbeat() -> None:
    """Stamp the calling rank's last-alive wall time.

    Beaten from the engine batch loop, the rollout step loop, and the
    parareal sweep loop.  Fast path: a no-op unless the registry is
    collecting *or* a supervisor installed an out-of-band sink (the
    process backend's shared heartbeat array) — so the instrumented
    loops pay two attribute checks when idle.
    """
    if _heartbeat_sink is None and not _enabled:
        return
    global _heartbeat_gauge
    wall = time.time()
    if _heartbeat_gauge is None:
        _heartbeat_gauge = gauge(HEARTBEAT_METRIC, forward_to_trace=False)
    _heartbeat_gauge.set(wall)
    if _heartbeat_sink is not None:
        _heartbeat_sink(trace.current_rank(), wall)


def heartbeat_active() -> bool:
    """Whether :func:`heartbeat` currently records anywhere.

    Lets blocking loops (the process backend's receive poll) decide
    whether to chunk their waits so they can keep beating — without
    paying for short wakeups when nobody is listening.
    """
    return _heartbeat_sink is not None or _enabled


def set_heartbeat_sink(sink: Callable[[int | None, float], None] | None) -> None:
    """Install (or clear, with ``None``) the out-of-band heartbeat sink.

    The process-backend worker points this at a shared
    ``multiprocessing.Array`` slot so the parent supervisor can detect
    a stalled rank without any queue traffic.
    """
    global _heartbeat_sink
    _heartbeat_sink = sink
