"""Cross-process telemetry aggregation.

Ranks running under the process execution backend record spans and
metrics (kernel timings included) into *their own* interpreter; this
module defines the bundle a worker captures at shutdown (or abort) and
the parent-side merge.  The wire format is a plain picklable dataclass shipped over
the backend's existing result queue — no extra channel, and because
span timestamps are wall-clock-anchored (see :mod:`repro.obs.trace`)
the merge is a straight concatenation with no clock re-basing.

The abort path matters as much as the clean one: a worker that dies
with an exception still captures and ships its bundle, so post-mortem
traces survive a crashed rank and show what it was doing when it died.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from . import metrics as obs_metrics
from . import trace
from .trace import Metric, Span

__all__ = ["TraceBundle", "capture", "absorb"]


@dataclass
class TraceBundle:
    """One rank's telemetry, serialized for the trip to the parent."""

    rank: int | None
    spans: list[Span] = field(default_factory=list)
    metrics: list[Metric] = field(default_factory=list)
    dropped: int = 0
    #: instrument name -> picklable state from ``obs.metrics.snapshot()``
    metrics_state: dict[str, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.spans or self.metrics or self.metrics_state)


def capture(rank: int | None = None) -> TraceBundle | None:
    """Snapshot this process's telemetry for shipping; ``None`` when
    there is nothing to ship (the common untraced case — keeps the
    result-queue payload unchanged unless observability is on)."""
    bundle = TraceBundle(
        rank=rank if rank is not None else trace.current_rank(),
        spans=trace.spans(),
        metrics=trace.metrics(),
        dropped=trace.dropped(),
        metrics_state=obs_metrics.snapshot(),
    )
    return bundle if bundle else None


def absorb(bundle: TraceBundle | None) -> None:
    """Merge a shipped bundle into this process's buffers.

    Spans that were recorded before the worker learned its rank (rank
    ``None``) are attributed to the bundle's rank so the merged
    timeline stays fully rank-tagged.
    """
    if not bundle:
        return
    if bundle.rank is not None:
        for s in bundle.spans:
            if s.rank is None:
                s.rank = bundle.rank
        for m in bundle.metrics:
            if m.rank is None:
                m.rank = bundle.rank
    trace.extend(bundle.spans, bundle.metrics)
    obs_metrics.merge_snapshot(bundle.metrics_state, default_rank=bundle.rank)
