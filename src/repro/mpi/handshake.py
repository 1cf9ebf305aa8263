"""Post/wait handshake between ranks that share memory.

:func:`~repro.mpi.shm.shared_empty` gives every rank of a world the same
array; what it does not give is *when* a neighbour's part of it is
ready.  :class:`Handshake` is that missing half of an MPI-3
shared-window exchange: a rank that has written its part ``post``\\ s,
a rank about to read a neighbour's part ``wait``\\ s, and nothing else —
no payload, no pickling, no mailbox — crosses between them.

Each directed edge (writer → reader) is one counting POSIX semaphore, so
the k-th wait on an edge returns after the k-th post on it no matter how
far ahead the writer runs, and edges do not interfere.  The parent
creates the handshake before :func:`~repro.mpi.run_parallel`; rank
threads share it and ``fork``\\ ed rank processes inherit it, through the
same code.  Under the fork context CPython unlinks each semaphore's name
the moment it is created, so nothing appears in ``/dev/shm`` and there
is nothing to clean up after a crashed rank.
"""

from __future__ import annotations

import multiprocessing
from typing import Iterable, Sequence

from ..exceptions import CommunicatorError, DeadlockError
from ..obs import metrics as obs_metrics
from .api import Communicator
from .process_backend import _default_start_method

__all__ = ["Handshake"]

#: A blocked wait sleeps in the kernel and wakes this often to notice a
#: world abort, beat the heartbeat and check the deadlock watchdog.
_WAKE_SECONDS = 0.1


class Handshake:
    """Counting "my part is written" signals along rank-to-rank edges.

    Parameters
    ----------
    sources:
        ``sources[rank]`` lists the ranks whose posts ``rank`` waits
        for; :meth:`post` on a rank signals every rank that lists it.
    """

    def __init__(self, sources: Sequence[Iterable[int]]) -> None:
        ctx = multiprocessing.get_context(_default_start_method())
        size = len(sources)
        self._inbound: list[list[tuple[int, object]]] = [[] for _ in range(size)]
        self._outbound: list[list[object]] = [[] for _ in range(size)]
        for rank, peers in enumerate(sources):
            for peer in peers:
                if not 0 <= peer < size or peer == rank:
                    raise CommunicatorError(
                        f"rank {rank} cannot wait for rank {peer} in a world of {size}"
                    )
                edge = ctx.Semaphore(0)
                self._inbound[rank].append((peer, edge))
                self._outbound[peer].append(edge)

    def post(self, rank: int) -> None:
        """Signal every rank waiting on ``rank``; never blocks."""
        for edge in self._outbound[rank]:
            edge.release()

    def wait(self, comm: Communicator, step: int) -> None:
        """Block until each of this rank's sources has posted once more.

        ``step`` only labels the wait in the error.  Raises
        :class:`~repro.exceptions.DeadlockError` when the world aborts
        (a peer failed) or a source stays silent for longer than
        ``comm.deadlock_timeout``.
        """
        waited = 0.0
        for peer, edge in self._inbound[comm.rank]:
            # acquire() tries without blocking first, so a post that
            # already happened costs one sem_trywait.
            while not edge.acquire(True, _WAKE_SECONDS):
                waited += _WAKE_SECONDS
                comm._raise_if_aborted()
                obs_metrics.heartbeat()  # blocked is alive, not stalled
                timeout = comm.deadlock_timeout
                if timeout is not None and waited >= timeout:
                    raise DeadlockError(
                        f"rank {comm.rank} timed out after {timeout}s waiting for "
                        f"rank {peer} to post step {step}; likely deadlock"
                    )
