"""Thread-safe message router shared by the ranks of a world.

One mailbox per destination rank holds ``(source, tag, payload)``
entries; a receive takes the oldest entry with its exact
``(source, tag)``, so messages between a pair never overtake each other
on one tag (as MPI guarantees).
"""

from __future__ import annotations

import copy
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..exceptions import DeadlockError
from ..obs import trace


@dataclass
class _Envelope:
    source: int
    tag: int
    payload: Any


#: Types that are immutable (or value-semantic) and need no copy at all.
_IMMUTABLE_TYPES = (int, float, complex, bool, str, bytes, frozenset, np.generic)


def _isolate_payload(payload: Any) -> Any:
    """Copy a payload so sender and receiver share no memory.

    ``copy.deepcopy`` was a measured hot spot of the thread backend
    (every halo slab and weight vector went through the generic memo
    machinery), so the common payload shapes take fast paths: ndarrays
    are buffer-copied, :class:`~repro.tensor.Tensor` payloads copy only
    their buffer (a message carries *values*, never a live autograd
    graph — matching real distributed-memory semantics), and plain
    list/tuple/dict containers recurse so state-dicts of arrays stay on
    the fast path.  Everything else falls back to ``copy.deepcopy``.
    """
    if payload is None or isinstance(payload, _IMMUTABLE_TYPES):
        return payload
    if isinstance(payload, np.ndarray):
        return payload.copy()
    from ..tensor import Tensor  # local import: repro.tensor never imports repro.mpi

    if type(payload) is Tensor:
        return Tensor(payload.data.copy(), requires_grad=payload.requires_grad)
    # Exact container types only: subclasses may carry extra state that
    # a structural copy would silently drop.
    if type(payload) is list:
        return [_isolate_payload(item) for item in payload]
    if type(payload) is tuple:
        return tuple(_isolate_payload(item) for item in payload)
    if type(payload) is dict:
        return {key: _isolate_payload(value) for key, value in payload.items()}
    return copy.deepcopy(payload)


class MessageRouter:
    """In-memory transport connecting the ranks of one world."""

    def __init__(self, size: int) -> None:
        self.size = size
        self._ready = threading.Condition()
        self._mailboxes: list[deque[_Envelope]] = [deque() for _ in range(size)]
        self._waiting = 0  # ranks currently blocked in recv
        self._failed: BaseException | None = None

    # ------------------------------------------------------------------
    def post(self, source: int, dest: int, tag: int, payload: Any) -> None:
        """Deposit a copy of ``payload`` (buffered send)."""
        payload = _isolate_payload(payload)
        with self._ready:
            self._mailboxes[dest].append(_Envelope(source, tag, payload))
            self._ready.notify_all()

    def abort(self, exc: BaseException) -> None:
        """Poison the world: every blocked and future receive re-raises."""
        with self._ready:
            self._failed = exc
            self._ready.notify_all()

    def raise_if_aborted(self) -> None:
        """Raise :class:`DeadlockError` once the world has been aborted."""
        if self._failed is not None:
            raise DeadlockError(f"world aborted: {self._failed!r}") from self._failed

    # ------------------------------------------------------------------
    def _match(self, dest: int, source: int, tag: int) -> _Envelope | None:
        box = self._mailboxes[dest]
        for i, env in enumerate(box):
            if env.source == source and env.tag == tag:
                del box[i]
                return env
        return None

    def collect(self, dest: int, source: int, tag: int, timeout: float | None) -> Any:
        """Blocking matching receive with a deadlock watchdog timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        # Blocked-wait accounting: the sum of wait() stretches becomes a
        # "router.wait" span (cat "comm.wait") on a successful match.
        # It nests inside the caller's mpi.recv span and is reported as
        # its own summary column, never added to the comm total.
        waited = 0.0
        with self._ready:
            while True:
                self.raise_if_aborted()
                env = self._match(dest, source, tag)
                if env is not None:
                    if waited > 0.0 and trace.enabled():
                        trace.record(
                            "router.wait", "comm.wait",
                            trace.clock() - waited, dur=waited,
                            source=source, dest=dest, tag=tag,
                        )
                    return env.payload
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise DeadlockError(self._timeout_message(dest, source, tag, timeout))
                self._waiting += 1
                wait_start = trace.clock() if trace.enabled() else None
                try:
                    self._ready.wait(remaining)
                finally:
                    self._waiting -= 1
                    if wait_start is not None:
                        waited += trace.clock() - wait_start

    def _timeout_message(self, dest: int, source: int, tag: int, timeout: float | None) -> str:
        """Diagnostic for a receive that hit the deadlock watchdog.

        Names the blocked ``(source, dest, tag)`` triple, reports the
        router's full queued-message inventory (the messages that *are*
        in flight but match nothing), and flags the all-ranks-blocked
        case.  Caller must hold ``self._ready``.
        """
        inventory = [
            (env.source, box_dest, env.tag)
            for box_dest, box in enumerate(self._mailboxes)
            for env in box
        ]
        parts = [
            f"rank {dest} timed out after {timeout}s blocked in recv on "
            f"(source={source}, dest={dest}, tag={tag})"
        ]
        # This rank already left wait(), so it is not counted in _waiting.
        if self._waiting >= self.size - 1 and self.size > 1:
            parts.append(
                f"all {self.size} ranks are blocked in recv — communication cycle"
            )
        if inventory:
            parts.append(
                "queued-but-uncollected messages (source, dest, tag): "
                f"{inventory}"
            )
        else:
            parts.append("no messages queued anywhere in the world")
        parts.append("likely deadlock")
        return "; ".join(parts)
