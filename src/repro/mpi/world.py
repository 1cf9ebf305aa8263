"""The thread backend's communicator: one rank's endpoint into the
world's shared :class:`~repro.mpi.router.MessageRouter`.
"""

from __future__ import annotations

from typing import Any

from ..exceptions import CommunicatorError
from .api import Communicator
from .router import MessageRouter


class WorldCommunicator(Communicator):
    """One rank's endpoint into a shared :class:`MessageRouter`.

    Instances are created by the launcher (one per rank) and share one
    router; they are safe to use from the owning rank's thread only.
    """

    def __init__(self, router: MessageRouter, rank: int) -> None:
        if not 0 <= rank < router.size:
            raise CommunicatorError(f"rank {rank} out of range for size {router.size}")
        self._router = router
        self._rank = rank

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._router.size

    def _send(self, payload: Any, dest: int, tag: int) -> None:
        self._router.post(self._rank, dest, tag, payload)

    def _recv(self, source: int, tag: int, timeout: float | None) -> Any:
        return self._router.collect(self._rank, source, tag, timeout)

    def _raise_if_aborted(self) -> None:
        self._router.raise_if_aborted()
