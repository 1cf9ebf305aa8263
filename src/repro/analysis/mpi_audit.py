"""MPI runtime sanitizer: unmatched-message and deadlock diagnostics.

:class:`MpiSanitizer` instruments :class:`~repro.mpi.router.MessageRouter`
at the class level while active, so every world created inside the
context — including the routers :func:`repro.mpi.run_parallel` builds
internally — is audited with **zero** cost in default mode (nothing is
patched when no sanitizer is active).

It records every posted and every collected message as a
``(source, dest, tag)`` triple; at context exit, messages that were
sent but never received are reported (and raised as
:class:`~repro.exceptions.SanitizerError` in strict mode).  Deadlocks
themselves are diagnosed by the router's own watchdog, which names the
blocked triple and the queued-message inventory — the sanitizer adds
the *silent* failure class the watchdog cannot see: messages that were
delivered into a mailbox and simply never asked for.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from ..exceptions import SanitizerError
from ..mpi.router import MessageRouter

__all__ = ["MpiSanitizer", "RouterAudit", "MpiAuditReport"]


@dataclass
class RouterAudit:
    """Message traffic of one router (one world)."""

    world_size: int
    posted: Counter = field(default_factory=Counter)  # (source, dest, tag) -> n
    collected: Counter = field(default_factory=Counter)

    def unmatched(self) -> list[tuple[tuple[int, int, int], int]]:
        """Triples posted more often than collected, with the excess count."""
        excess = self.posted - self.collected
        return sorted(excess.items())

    @property
    def messages_posted(self) -> int:
        return sum(self.posted.values())


@dataclass
class MpiAuditReport:
    """Aggregate of every world observed during one sanitizer session."""

    audits: list[RouterAudit] = field(default_factory=list)

    @property
    def unmatched(self) -> list[tuple[tuple[int, int, int], int]]:
        return [item for audit in self.audits for item in audit.unmatched()]

    @property
    def ok(self) -> bool:
        return not self.unmatched

    def format(self) -> str:
        total = sum(a.messages_posted for a in self.audits)
        lines = [
            f"mpi audit: {len(self.audits)} world(s), {total} message(s) posted"
        ]
        for (source, dest, tag), count in self.unmatched:
            lines.append(
                f"  UNMATCHED source={source} dest={dest} tag={tag}: "
                f"{count} message(s) queued but never collected"
            )
        if self.ok:
            lines.append("  every posted message was collected")
        return "\n".join(lines)


class MpiSanitizer:
    """Audit every message of every world created inside the context.

    Parameters
    ----------
    strict:
        Raise :class:`~repro.exceptions.SanitizerError` at context exit
        when any message was posted but never collected.  When the body
        is already unwinding with an exception, the report is kept on
        :attr:`report` but nothing new is raised.
    """

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self.report = MpiAuditReport()
        self._saved: dict[str, Any] = {}

    # ------------------------------------------------------------------
    def __enter__(self) -> "MpiSanitizer":
        self._saved = {
            name: MessageRouter.__dict__[name]
            for name in ("__init__", "post", "collect")
        }
        originals = dict(self._saved)
        report = self.report

        def patched_init(router: MessageRouter, *args: Any, **kwargs: Any) -> None:
            originals["__init__"](router, *args, **kwargs)
            audit = RouterAudit(world_size=router.size)
            router._audit = audit  # type: ignore[attr-defined]
            report.audits.append(audit)

        def patched_post(router, source, dest, tag, payload):
            audit = getattr(router, "_audit", None)
            if audit is not None:
                audit.posted[(source, dest, tag)] += 1
            return originals["post"](router, source, dest, tag, payload)

        def patched_collect(router, dest, source, tag, timeout):
            payload = originals["collect"](router, dest, source, tag, timeout)
            audit = getattr(router, "_audit", None)
            if audit is not None:
                audit.collected[(source, dest, tag)] += 1
            return payload

        MessageRouter.__init__ = patched_init  # type: ignore[method-assign]
        MessageRouter.post = patched_post  # type: ignore[method-assign]
        MessageRouter.collect = patched_collect  # type: ignore[method-assign]
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        for name, value in self._saved.items():
            setattr(MessageRouter, name, value)
        self._saved = {}
        if self.strict and exc_type is None and not self.report.ok:
            raise SanitizerError(
                "MPI audit found messages that were sent but never "
                "received:\n" + self.report.format()
            )
