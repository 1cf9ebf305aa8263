"""Abstract message-passing API modeled on MPI.

The :class:`Communicator` interface carries exactly what the paper's
scheme calls: blocking point-to-point ``send`` / ``recv`` (the halo
exchange at inference time), ``barrier`` (the one synchronisation of
the otherwise communication-free training) and ``allreduce`` with
:data:`SUM` or :data:`MAX` (evaluation statistics, the weight-averaging
baseline and Parareal's convergence test).

The collectives are built on point-to-point messaging with reserved
internal tags, so a backend provides only ``_send`` / ``_recv`` and the
``_raise_if_aborted`` hook :class:`~repro.mpi.handshake.Handshake`
polls.  Flat algorithms rooted at rank 0 are used; at the scales of the
paper (≤ 64 ranks) tree algorithms would change constants, not
behaviour.
"""

from __future__ import annotations

import operator
from functools import reduce as _functools_reduce
from typing import Any, Callable

import numpy as np

from ..exceptions import CommunicatorError
from ..obs import metrics as obs_metrics
from ..obs import trace

#: User tags must be below this; the range above is reserved for the
#: collectives.
MAX_USER_TAG = 1 << 30

#: Default seconds a blocking receive waits before the runtime declares
#: a deadlock; ``None`` disables the watchdog.
DEADLOCK_TIMEOUT = 120.0

#: A reduction operator: combines two payloads into one.
ReduceOp = Callable[[Any, Any], Any]
SUM: ReduceOp = operator.add
MAX: ReduceOp = np.maximum


def _payload_nbytes(payload: Any) -> int:
    """Best-effort byte size of a message payload (0 when unknown).

    Only used for trace annotation — never for correctness — so the
    duck typing here is deliberately forgiving.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    data = getattr(payload, "data", None)
    if isinstance(data, np.ndarray):  # repro Tensor
        return data.nbytes
    if isinstance(payload, (list, tuple)):
        return sum(_payload_nbytes(item) for item in payload)
    if isinstance(payload, dict):
        return sum(_payload_nbytes(item) for item in payload.values())
    return 0


#: Point-to-point traffic totals per rank (no-ops while metrics are
#: off); collectives are built from backend sends, so they do not count.
_BYTES_SENT = obs_metrics.counter("mpi.bytes_sent")
_BYTES_RECV = obs_metrics.counter("mpi.bytes_recv")


class Communicator:
    """Abstract communicator: a rank within a world of ``size`` ranks."""

    #: seconds a blocking receive waits before declaring a deadlock
    deadlock_timeout: float | None = DEADLOCK_TIMEOUT
    _collective_seq = 0

    @property
    def rank(self) -> int:
        raise NotImplementedError

    @property
    def size(self) -> int:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Backend hooks
    # ------------------------------------------------------------------
    def _send(self, payload: Any, dest: int, tag: int) -> None:
        raise NotImplementedError

    def _recv(self, source: int, tag: int, timeout: float | None) -> Any:
        raise NotImplementedError

    def _raise_if_aborted(self) -> None:
        """Raise :class:`~repro.exceptions.DeadlockError` once the world
        has been aborted (a peer failed); otherwise return at once."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def _check_peer(self, peer: int, what: str) -> None:
        if not 0 <= peer < self.size:
            raise CommunicatorError(
                f"{what} rank {peer} out of range for world size {self.size}"
            )

    def _check_tag(self, tag: int) -> None:
        if not 0 <= tag < MAX_USER_TAG:
            raise CommunicatorError(
                f"tag {tag} outside the user tag range [0, {MAX_USER_TAG})"
            )

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Buffered send: returns as soon as the payload is enqueued.

        The payload is copied at the sender, matching distributed-
        memory semantics (mutations after ``send`` are not observable by
        the receiver).
        """
        self._check_peer(dest, "destination")
        self._check_tag(tag)
        traced = trace.enabled()
        if not traced and not obs_metrics.enabled():
            self._send(payload, dest, tag)
            return
        nbytes = _payload_nbytes(payload)
        _BYTES_SENT.inc(nbytes)
        if not traced:
            self._send(payload, dest, tag)
            return
        start = trace.clock()
        self._send(payload, dest, tag)
        trace.record(
            "mpi.send", "comm", start,
            peer=dest, tag=tag, bytes=nbytes,
        )

    def recv(self, source: int, tag: int, timeout: float | None = None) -> Any:
        """Blocking receive of the next ``(source, tag)`` message.

        ``timeout`` overrides :attr:`deadlock_timeout` for this call.
        """
        self._check_peer(source, "source")
        self._check_tag(tag)
        effective = timeout if timeout is not None else self.deadlock_timeout
        traced = trace.enabled()
        if not traced and not obs_metrics.enabled():
            return self._recv(source, tag, effective)
        start = trace.clock()
        payload = self._recv(source, tag, effective)
        nbytes = _payload_nbytes(payload)
        _BYTES_RECV.inc(nbytes)
        if traced:
            trace.record(
                "mpi.recv", "comm", start,
                peer=source, tag=tag, bytes=nbytes,
            )
        return payload

    # ------------------------------------------------------------------
    # Collectives (flat, over point-to-point with reserved tags)
    # ------------------------------------------------------------------
    def _next_collective_tag(self) -> int:
        seq = self._collective_seq
        self._collective_seq = seq + 1
        return MAX_USER_TAG + 2 * (seq % (1 << 16))

    def _traced_collective(self, name: str, impl: Callable[[], Any]) -> Any:
        """Run one collective step under a ``comm.collective`` span."""
        if not trace.enabled():
            return impl()
        start = trace.clock()
        result = impl()
        trace.record(name, "comm.collective", start)
        return result

    def barrier(self) -> None:
        """Block until every rank of the communicator has arrived."""
        self._traced_collective("mpi.barrier", self._barrier)

    def _barrier(self) -> None:
        tag = self._next_collective_tag()
        if self.rank == 0:
            for peer in range(1, self.size):
                self._recv(peer, tag, self.deadlock_timeout)
            for peer in range(1, self.size):
                self._send(None, peer, tag + 1)
        else:
            self._send(None, 0, tag)
            self._recv(0, tag + 1, self.deadlock_timeout)

    def _gather(self, payload: Any) -> list[Any] | None:
        """Every rank's payload, in rank order, at rank 0 (``None`` elsewhere)."""
        tag = self._next_collective_tag()
        if self.rank != 0:
            self._send(payload, 0, tag)
            return None
        return [payload] + [
            self._recv(peer, tag, self.deadlock_timeout) for peer in range(1, self.size)
        ]

    def _bcast(self, payload: Any) -> Any:
        """Rank 0's ``payload`` on every rank."""
        tag = self._next_collective_tag()
        if self.rank != 0:
            return self._recv(0, tag, self.deadlock_timeout)
        for peer in range(1, self.size):
            self._send(payload, peer, tag)
        return payload

    def allreduce(self, payload: Any, op: ReduceOp = SUM) -> Any:
        """Combine every rank's payload with ``op`` and return the result
        on every rank.  Payloads are combined in rank order, so the
        result is bit-identical across runs and backends."""
        gathered = self._traced_collective("mpi.gather", lambda: self._gather(payload))
        reduced = None if gathered is None else _functools_reduce(op, gathered)
        return self._traced_collective("mpi.bcast", lambda: self._bcast(reduced))
