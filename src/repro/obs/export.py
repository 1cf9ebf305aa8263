"""Exporters for the trace buffer: JSONL, Chrome trace JSON, and the
plain-text per-rank compute/communication summary.

Three consumers, three formats:

* :func:`write_jsonl` — one JSON object per line, lossless, greppable,
  and re-loadable with :func:`read_jsonl` (``repro trace --from``).
* :func:`write_chrome_trace` — the ``chrome://tracing`` / Perfetto
  event format: ranks become processes (``pid``), threads become
  ``tid`` rows, spans become ``"X"`` complete events, metrics become
  ``"C"`` counter tracks.
* :func:`format_summary` — the per-rank table the paper's scaling
  story needs: wall seconds split into compute vs. communication, plus
  message/byte counts and blocked-wait time.

Category accounting (the part that is easy to get wrong): summary
communication seconds sum only the *primitive* categories ``comm``
(point-to-point send/recv) and ``comm.collective`` (``mpi.barrier``,
and ``mpi.gather`` + ``mpi.bcast``, the two steps of an allreduce).
Compound operations that are built *from* those primitives — the halo
exchange — carry ``comm.compound`` and are excluded so their inner sends
and recvs are not counted twice.  ``comm.wait`` (time a
recv spent blocked in the router) nests inside recv spans and is
reported as its own column, never added to the comm total.

Parareal spans (``parareal.solve/coarse/fine/correct``, category
``parareal``) get their own accounting: per-rank ``parareal_seconds``
plus a coarse/fine/correct split keyed off the span name, so a traced
parareal run shows where the iteration's time went instead of lumping
it into undifferentiated compute.  Slice states are handed over through
a shared window, not as messages: the stall shows as ``parareal.wait``
(category ``comm.wait``, so in ``wait_seconds``), ``comm_messages`` /
``comm_bytes`` (point-to-point only) read zero, and ``comm_seconds`` is
the per-sweep convergence ``allreduce``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Iterable

from .trace import Metric, Span

__all__ = [
    "COMM_CATS",
    "WAIT_CAT",
    "PARAREAL_CAT",
    "write_jsonl",
    "read_jsonl",
    "write_chrome_trace",
    "summary",
    "format_summary",
    "write_summary",
]

#: Categories whose span durations count as communication seconds.
COMM_CATS = frozenset({"comm", "comm.collective"})

#: Category for blocked-wait inside a recv (reported separately).
WAIT_CAT = "comm.wait"

#: Category of the Parareal iteration spans (own summary column).
PARAREAL_CAT = "parareal"


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_jsonl(
    path: str | pathlib.Path,
    spans: Iterable[Span],
    metrics: Iterable[Metric] = (),
    meta: dict[str, Any] | None = None,
    dropped: int | None = None,
) -> pathlib.Path:
    """Write the event log as JSON-lines; returns the path written.

    The first line is a ``{"kind": "meta", ...}`` header so readers can
    sanity-check the file before streaming the rest.  Pass ``dropped``
    (from :func:`repro.obs.trace.dropped`) so readers can tell a short
    run from a truncated buffer.
    """
    path = pathlib.Path(path)
    span_list = list(spans)
    metric_list = list(metrics)
    with path.open("w") as fh:
        header = {"kind": "meta", "format": "repro-trace-v1",
                  "spans": len(span_list), "metrics": len(metric_list)}
        if dropped is not None:
            header["dropped"] = dropped
        if meta:
            header.update(meta)
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for s in span_list:
            record = {"kind": "span", "name": s.name, "cat": s.cat, "rank": s.rank,
                      "tid": s.tid, "ts": s.ts, "dur": s.dur}
            if s.args:
                record["args"] = s.args
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        for m in metric_list:
            fh.write(json.dumps({"kind": "metric", "name": m.name, "rank": m.rank,
                                 "ts": m.ts, "value": m.value}, sort_keys=True) + "\n")
    return path


def read_jsonl(path: str | pathlib.Path) -> tuple[list[Span], list[Metric]]:
    """Load a :func:`write_jsonl` file back into span/metric objects."""
    spans: list[Span] = []
    metrics: list[Metric] = []
    for line in pathlib.Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        kind = record.get("kind")
        if kind == "span":
            spans.append(Span(record["name"], record["cat"], record["rank"],
                              record.get("tid", 0), record["ts"], record["dur"],
                              record.get("args")))
        elif kind == "metric":
            metrics.append(Metric(record["name"], record["rank"],
                                  record["ts"], record["value"]))
        # "meta" and unknown kinds are skipped: forward compatibility.
    return spans, metrics


# ----------------------------------------------------------------------
# Chrome trace format
# ----------------------------------------------------------------------
def _pid(rank: int | None) -> int:
    # chrome://tracing needs an integer pid; the driver (rank None)
    # gets -1 and a process_name metadata record saying so.
    return -1 if rank is None else rank


def write_chrome_trace(
    path: str | pathlib.Path,
    spans: Iterable[Span],
    metrics: Iterable[Metric] = (),
) -> pathlib.Path:
    """Write a ``chrome://tracing`` JSON file; returns the path written.

    Timestamps are rebased to the earliest event and emitted in
    microseconds, as the format expects.  Output is deterministic
    (sorted events, sorted keys) so golden-file tests can diff it.
    """
    path = pathlib.Path(path)
    span_list = sorted(spans, key=lambda s: (s.ts, _pid(s.rank), s.tid, s.name))
    metric_list = sorted(metrics, key=lambda m: (m.ts, _pid(m.rank), m.name))
    origin = min(
        [s.ts for s in span_list] + [m.ts for m in metric_list], default=0.0
    )

    events: list[dict[str, Any]] = []
    ranks = sorted({_pid(s.rank) for s in span_list} | {_pid(m.rank) for m in metric_list})
    for pid in ranks:
        name = "driver" if pid == -1 else f"rank {pid}"
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                       "args": {"name": name}})
    for s in span_list:
        event: dict[str, Any] = {
            "ph": "X",
            "name": s.name,
            "cat": s.cat,
            "pid": _pid(s.rank),
            "tid": s.tid,
            "ts": round((s.ts - origin) * 1e6, 3),
            "dur": round(s.dur * 1e6, 3),
        }
        if s.args:
            event["args"] = s.args
        events.append(event)
    for m in metric_list:
        events.append({
            "ph": "C",
            "name": m.name,
            "pid": _pid(m.rank),
            "tid": 0,
            "ts": round((m.ts - origin) * 1e6, 3),
            "args": {"value": m.value},
        })

    path.write_text(json.dumps({"traceEvents": events}, sort_keys=True,
                               separators=(",", ":")) + "\n")
    return path


# ----------------------------------------------------------------------
# Per-rank summary
# ----------------------------------------------------------------------
def summary(spans: Iterable[Span]) -> dict[int | None, dict[str, float]]:
    """Per-rank compute/communication breakdown.

    For each rank: ``total_seconds`` is the span extent (latest end
    minus earliest start), ``comm_seconds`` sums spans in
    :data:`COMM_CATS`, ``compute_seconds`` is the remainder after comm
    and parareal time (clamped at zero), ``wait_seconds`` sums
    :data:`WAIT_CAT` spans, and
    ``comm_messages`` / ``comm_bytes`` count point-to-point traffic.
    :data:`PARAREAL_CAT` spans additionally fill ``parareal_seconds``
    and the ``parareal_coarse/fine/correct_seconds`` split (attributed
    by span name; the driver-side ``parareal.solve`` wrapper counts
    only toward the per-rank total, not the split).
    """
    per_rank: dict[int | None, dict[str, float]] = {}
    bounds: dict[int | None, tuple[float, float]] = {}
    for s in spans:
        row = per_rank.setdefault(s.rank, {
            "total_seconds": 0.0, "comm_seconds": 0.0, "compute_seconds": 0.0,
            "wait_seconds": 0.0, "comm_messages": 0, "comm_bytes": 0,
            "comm_fraction": 0.0, "spans": 0,
            "parareal_seconds": 0.0, "parareal_coarse_seconds": 0.0,
            "parareal_fine_seconds": 0.0, "parareal_correct_seconds": 0.0,
        })
        row["spans"] += 1
        lo, hi = bounds.get(s.rank, (s.ts, s.end))
        bounds[s.rank] = (min(lo, s.ts), max(hi, s.end))
        if s.cat in COMM_CATS:
            row["comm_seconds"] += s.dur
            if s.cat == "comm":
                row["comm_messages"] += 1
                row["comm_bytes"] += (s.args or {}).get("bytes", 0)
        elif s.cat == WAIT_CAT:
            row["wait_seconds"] += s.dur
        elif s.cat == PARAREAL_CAT:
            row["parareal_seconds"] += s.dur
            phase = s.name.rsplit(".", 1)[-1]
            if phase in ("coarse", "fine", "correct"):
                row[f"parareal_{phase}_seconds"] += s.dur
    for rank, row in per_rank.items():
        lo, hi = bounds[rank]
        row["total_seconds"] = hi - lo
        row["compute_seconds"] = max(
            0.0,
            row["total_seconds"] - row["comm_seconds"] - row["parareal_seconds"],
        )
        row["comm_fraction"] = (
            row["comm_seconds"] / row["total_seconds"] if row["total_seconds"] > 0 else 0.0
        )
    return per_rank


def format_summary(spans: Iterable[Span], dropped: int = 0) -> str:
    """The per-rank breakdown as an aligned text table.

    When any rank recorded :data:`PARAREAL_CAT` spans, a second table
    splits the Parareal time into coarse/fine/correct phases.  A
    non-zero ``dropped`` (see :func:`repro.obs.trace.dropped`) appends
    a truncation warning so a silently capped buffer is never mistaken
    for a complete trace.
    """
    per_rank = summary(spans)
    if not per_rank:
        if dropped:
            return (f"trace summary: no spans recorded\n"
                    f"WARNING: trace buffer truncated — {dropped} event(s) "
                    "dropped past MAX_EVENTS")
        return "trace summary: no spans recorded"
    header = (f"{'rank':>6} {'total s':>10} {'compute s':>10} {'comm s':>10} "
              f"{'comm %':>7} {'wait s':>10} {'msgs':>7} {'bytes':>12} {'spans':>7}")
    lines = ["trace summary (compute vs. communication per rank)", header,
             "-" * len(header)]
    def sort_key(rank):
        return (rank is None, rank if rank is not None else 0)
    for rank in sorted(per_rank, key=sort_key):
        row = per_rank[rank]
        label = "driver" if rank is None else str(rank)
        lines.append(
            f"{label:>6} {row['total_seconds']:>10.4f} {row['compute_seconds']:>10.4f} "
            f"{row['comm_seconds']:>10.4f} {row['comm_fraction'] * 100:>6.1f}% "
            f"{row['wait_seconds']:>10.4f} {row['comm_messages']:>7.0f} "
            f"{row['comm_bytes']:>12.0f} {row['spans']:>7.0f}"
        )
    if any(row["parareal_seconds"] > 0 for row in per_rank.values()):
        p_header = (f"{'rank':>6} {'parareal s':>11} {'coarse s':>10} "
                    f"{'fine s':>10} {'correct s':>10}")
        lines += ["", "parareal breakdown (coarse vs. fine vs. correction per rank)",
                  p_header, "-" * len(p_header)]
        for rank in sorted(per_rank, key=sort_key):
            row = per_rank[rank]
            if row["parareal_seconds"] <= 0:
                continue
            label = "driver" if rank is None else str(rank)
            lines.append(
                f"{label:>6} {row['parareal_seconds']:>11.4f} "
                f"{row['parareal_coarse_seconds']:>10.4f} "
                f"{row['parareal_fine_seconds']:>10.4f} "
                f"{row['parareal_correct_seconds']:>10.4f}"
            )
    if dropped:
        lines += ["", f"WARNING: trace buffer truncated — {dropped} event(s) "
                      "dropped past MAX_EVENTS"]
    return "\n".join(lines)


def write_summary(path: str | pathlib.Path, spans: Iterable[Span]) -> pathlib.Path:
    """Write :func:`summary` as JSON keyed by rank (``"driver"`` for
    the rankless driver row) — the input of ``bench_compare
    --summary-baseline``."""
    path = pathlib.Path(path)
    per_rank = summary(spans)
    payload = {("driver" if rank is None else str(rank)): row
               for rank, row in per_rank.items()}
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path
