"""Parallel-region launcher: the ``mpiexec`` analogue.

:func:`run_parallel` executes one Python callable per rank behind one of
two execution backends:

``backend="threads"`` (default)
    One in-process rank (thread) per subdomain, connected through a
    shared :class:`MessageRouter`.  NumPy kernels release the GIL, so
    ranks overlap where the hardware allows; more importantly, the
    *communication structure* of the rank program is executed faithfully
    (real blocking receives, real message matching), which is what the
    reproduction needs to validate.  Python-level work still serializes
    on the GIL.

``backend="processes"``
    One OS process per rank (see :mod:`repro.mpi.process_backend`), so P
    ranks genuinely occupy P cores: this is the backend that actually
    *scales*.  Every message is pickled through the destination's
    mailbox; bulk data belongs in a :func:`~repro.mpi.shm.shared_empty`
    array the ranks write in place.  With the default ``fork`` start
    method, rank programs may be closures exactly as with threads;
    ``spawn`` requires picklable module-level callables.

An exception in any rank aborts the whole world: the transport is
poisoned so blocked peers wake with
:class:`~repro.exceptions.DeadlockError`, and the original exception is
re-raised to the caller.  A region that outlives ``timeout`` is aborted
the same way and raises :class:`~repro.exceptions.CommunicatorError`.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable

from ..exceptions import CommunicatorError, DeadlockError
from ..obs import trace
from .api import DEADLOCK_TIMEOUT, Communicator
from .router import MessageRouter
from .world import WorldCommunicator

RankFn = Callable[[Communicator], Any]

#: Valid values of :func:`run_parallel`'s ``backend`` argument.
BACKENDS = ("threads", "processes")


def _share(size: int) -> int:
    """Conv-kernel threads of a rank of ``size``: its share of the cores
    this process may run on (``taskset`` sets them)."""
    return max(1, len(os.sched_getaffinity(0)) // size)


def _set_share(threads: int) -> int:
    """Set the calling thread's share; returns the one it replaces."""
    from ..tensor.blocked import set_image_threads

    return set_image_threads(threads)


def run_parallel(
    fn: RankFn,
    size: int,
    timeout: float | None = None,
    deadlock_timeout: float | None = DEADLOCK_TIMEOUT,
    backend: str = "threads",
    start_method: str | None = None,
    heartbeat_timeout: float | None = None,
) -> list[Any]:
    """Run the SPMD program ``fn`` on ``size`` ranks.

    Parameters
    ----------
    fn:
        Executed by every rank with its rank's :class:`Communicator`.
    size:
        Number of ranks.
    timeout:
        Overall wall-clock limit in seconds for the parallel region
        (``None`` = unlimited); exceeding it aborts the world and raises
        :class:`~repro.exceptions.CommunicatorError`.
    deadlock_timeout:
        Per-receive watchdog; a blocking receive that waits longer than
        this raises :class:`~repro.exceptions.DeadlockError`.
    backend:
        ``"threads"`` (in-process ranks, faithful communication
        structure) or ``"processes"`` (one OS process per rank, real
        multi-core execution).
    start_method:
        Process backend only: ``multiprocessing`` start method
        (default: ``fork`` where available, else ``spawn``).
    heartbeat_timeout:
        Process backend only: declare a rank stalled (and abort the
        world) when its :func:`repro.obs.metrics.heartbeat` beats go
        silent for longer than this many seconds.  ``None`` (default)
        disables stall detection.  Ignored by the thread backend,
        where a stuck rank is visible to the in-process watchdogs.

    Returns
    -------
    The per-rank return values, indexed by rank.
    """
    if size <= 0:
        raise CommunicatorError(f"size must be positive, got {size}")
    if backend == "threads":
        return _run_threads(fn, size, timeout, deadlock_timeout)
    if backend == "processes":
        from .process_backend import run_parallel_processes

        return run_parallel_processes(
            fn,
            size,
            timeout=timeout,
            deadlock_timeout=deadlock_timeout,
            start_method=start_method,
            heartbeat_timeout=heartbeat_timeout,
        )
    raise CommunicatorError(
        f"unknown backend {backend!r} (use one of {BACKENDS})"
    )


def _run_threads(
    fn: RankFn, size: int, timeout: float | None, deadlock_timeout: float | None
) -> list[Any]:
    router = MessageRouter(size)
    share = _share(size)
    results: list[Any] = [None] * size
    errors: list[tuple[int, BaseException]] = []
    errors_lock = threading.Lock()

    def worker(rank: int) -> None:
        trace.set_rank(rank)  # tag this thread's spans with its rank
        _set_share(share)
        comm = WorldCommunicator(router, rank)
        comm.deadlock_timeout = deadlock_timeout
        try:
            results[rank] = fn(comm)
        except BaseException as exc:  # noqa: BLE001 - must propagate to caller
            with errors_lock:
                errors.append((rank, exc))
            router.abort(exc)

    # The router IS the thread-safe shared transport: each worker builds
    # its own per-rank WorldCommunicator inside the thread and only the
    # lock-protected router crosses the thread boundary.  Daemon
    # threads: a rank abandoned at the region timeout cannot keep the
    # interpreter from exiting.
    threads = [
        threading.Thread(  # noqa: REP002
            target=worker, args=(rank,), name=f"repro-rank-{rank}", daemon=True
        )
        for rank in range(size)
    ]
    for thread in threads:
        thread.start()
    deadline = None if timeout is None else time.monotonic() + timeout
    for thread in threads:
        thread.join(None if deadline is None else max(0.0, deadline - time.monotonic()))
    if any(thread.is_alive() for thread in threads):
        # Wake the ranks blocked in recv; ranks stuck elsewhere are left
        # to finish on their own.
        error = CommunicatorError(f"parallel region exceeded timeout {timeout}s")
        router.abort(error)
        raise error

    if errors:
        errors.sort(key=lambda item: item[0])
        # When one rank fails, its peers typically die with the induced
        # "world aborted" DeadlockError; report the root cause instead.
        primary = [e for e in errors if not isinstance(e[1], DeadlockError)]
        rank, first = (primary or errors)[0]
        raise first
    return results
