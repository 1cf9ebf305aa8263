"""Process-based execution backend: one OS process per rank.

The thread backend executes the communication structure faithfully but
serializes Python-level work on the GIL; this backend gives every rank
its own interpreter so P ranks genuinely occupy P cores.  The transport
is one ``multiprocessing`` queue per destination rank (the mailbox) —
matching receives buffer out-of-order arrivals locally, preserving
MPI's non-overtaking guarantee per ``(source, dest, tag)`` because all
traffic to a rank flows through its single FIFO queue.  Every message
is pickled, whatever its size (one-way on the 2-core reference VM:
0.19 ms at 2 KiB, 0.40 ms at 128 KiB, 4.4 ms at 1 MiB), and so is every
rank *result*, through the result queue: bulk data belongs in a
:func:`~repro.mpi.shm.shared_empty` array the ranks read and write in
place, ordered by a :class:`~repro.mpi.handshake.Handshake`.

Failure semantics mirror the thread backend: a rank that raises reports
its (pickled) exception to the parent, which poisons every mailbox with
an abort sentinel so blocked peers wake with
:class:`~repro.exceptions.DeadlockError`; the parent re-raises the root
cause.  Hard deaths (a worker exiting without reporting) and region
timeouts are detected by the parent's supervision loop, which aborts
and, as a last resort, terminates stragglers.

The default start method is ``fork`` where available (it allows rank
programs that are closures, mirroring the thread backend's contract);
pass ``start_method="spawn"`` for picklable, module-level rank programs
when fork-safety is a concern.
"""

from __future__ import annotations

import io
import multiprocessing
import pickle
import queue as queue_module
import time
import traceback
from dataclasses import dataclass
from typing import Any, Sequence

from ..exceptions import CommunicatorError, DeadlockError
from ..obs import metrics as obs_metrics
from ..obs import trace
from .api import DEADLOCK_TIMEOUT, Communicator
from .launcher import RankFn, _set_share, _share
from .router import _isolate_payload
from .shm import is_shared

__all__ = ["ProcessCommunicator", "run_parallel_processes"]

#: How long the parent waits, after an abort, for workers to exit on
#: their own before terminating them.
_ABORT_GRACE_SECONDS = 5.0

#: Consecutive empty result-queue polls (at _POLL_SECONDS each) before a
#: cleanly-exited worker with no reported result is declared lost.
_LOST_WORKER_POLLS = 20
_POLL_SECONDS = 0.05

#: Receive-wait chunk while heartbeats are armed: a rank blocked in
#: recv wakes this often to beat, so it reads as alive (not stalled) to
#: the supervisor no matter how long the legitimate wait runs.
_HEARTBEAT_POLL_SECONDS = 0.1

#: Depth of the local out-of-order inbox, sampled on every receive.
_MAILBOX_DEPTH = obs_metrics.gauge("mpi.mailbox_depth", forward_to_trace=False)


@dataclass(frozen=True)
class _Abort:
    """Mailbox poison: wakes a blocked receive with the world's failure."""

    reason: str


@dataclass
class _Envelope:
    source: int
    tag: int
    payload: Any


class ProcessCommunicator(Communicator):
    """One rank's endpoint over the per-rank mailbox queues.

    Safe to use from the owning rank's process only (the mailbox buffer
    is process-local state).
    """

    def __init__(
        self,
        rank: int,
        size: int,
        mailboxes: Sequence[Any],  # one multiprocessing queue per rank
        deadlock_timeout: float | None = DEADLOCK_TIMEOUT,
    ) -> None:
        if not 0 <= rank < size:
            raise CommunicatorError(f"rank {rank} out of range for size {size}")
        self._rank = rank
        self._size = size
        self._mailboxes = mailboxes
        self._inbox: list[_Envelope] = []  # out-of-order arrivals, oldest first
        self._failed: str | None = None
        self.deadlock_timeout = deadlock_timeout

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _send(self, payload: Any, dest: int, tag: int) -> None:
        # The queue's feeder thread pickles items *asynchronously*, so a
        # sender mutating the payload right after send() would race the
        # serialization: snapshot it before it is enqueued.
        self._mailboxes[dest].put((self._rank, tag, _isolate_payload(payload)))

    def _admit(self, item: Any) -> None:
        if isinstance(item, _Abort):
            self._failed = item.reason
            return
        source, tag, payload = item
        self._inbox.append(_Envelope(source, tag, payload))

    def _drain(self) -> None:
        """Pull every message currently queued into the local inbox."""
        mailbox = self._mailboxes[self._rank]
        while True:
            try:
                item = mailbox.get_nowait()
            except queue_module.Empty:
                return
            self._admit(item)

    def _raise_if_aborted(self) -> None:
        self._drain()
        if self._failed is not None:
            raise DeadlockError(f"world aborted: {self._failed}")

    def _match(self, source: int, tag: int) -> _Envelope | None:
        for i, env in enumerate(self._inbox):
            if env.source == source and env.tag == tag:
                del self._inbox[i]
                return env
        return None

    def _recv(self, source: int, tag: int, timeout: float | None) -> Any:
        deadline = None if timeout is None else time.monotonic() + timeout
        mailbox = self._mailboxes[self._rank]
        while True:
            self._raise_if_aborted()
            if obs_metrics.enabled():
                _MAILBOX_DEPTH.set(len(self._inbox))
            env = self._match(source, tag)
            if env is not None:
                return env.payload
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise DeadlockError(
                    f"rank {self._rank} timed out after {timeout}s blocked in recv "
                    f"on (source={source}, dest={self._rank}, tag={tag}); "
                    f"{len(self._inbox)} non-matching message(s) buffered locally; "
                    "likely deadlock"
                )
            wait = remaining
            if obs_metrics.heartbeat_active():
                # A rank blocked in recv is alive (it is polling its
                # mailbox), not stalled: chunk the wait so it keeps
                # beating and only truly silent ranks trip the
                # supervisor's heartbeat_timeout.
                obs_metrics.heartbeat()
                wait = (
                    _HEARTBEAT_POLL_SECONDS
                    if wait is None
                    else min(wait, _HEARTBEAT_POLL_SECONDS)
                )
            try:
                item = mailbox.get(timeout=wait)
            except queue_module.Empty:
                continue
            self._admit(item)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _encode_outcome(rank: int, kind: str, value: Any, bundle: Any = None) -> bytes:
    """Pre-pickle the report so an unpicklable result/exception cannot
    die silently in the queue's feeder thread (which would hang the
    parent's supervision loop).

    ``bundle`` is the rank's telemetry (:class:`repro.obs.aggregate.
    TraceBundle`) riding along with the outcome; if *it* turns out
    unpicklable it is dropped rather than taking the result with it.
    """

    def dumps(kind: str, value: Any) -> bytes:
        try:
            return pickle.dumps((rank, kind, value, bundle), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            if bundle is None:
                raise
            return pickle.dumps((rank, kind, value, None), protocol=pickle.HIGHEST_PROTOCOL)

    try:
        return dumps(kind, value)
    except Exception as exc:
        detail = (
            f"rank {rank} produced an unpicklable "
            f"{'result' if kind == 'ok' else 'exception'} "
            f"({type(value).__name__}): {exc!r}"
        )
        if isinstance(value, BaseException):
            detail += "\n" + "".join(
                traceback.format_exception(type(value), value, value.__traceback__)
            )
        return dumps("err", CommunicatorError(detail))


def _worker_main(
    rank: int,
    size: int,
    fn: RankFn,
    mailboxes: Sequence[Any],
    result_queue: Any,
    deadlock_timeout: float | None,
    obs_flags: tuple[bool, bool, bool],
    precision: str,
    heartbeats: Any = None,
    share: int = 1,
) -> None:
    """Entry point of one rank process (module-level for spawn support).

    ``obs_flags`` is ``(tracing, perf, metrics)`` as observed in the
    parent at launch: module-level enable state does not survive a
    ``spawn``, and under ``fork`` the child additionally inherits the
    parent's event buffers, which must be cleared so the rank ships
    only its own telemetry.  ``precision`` is the parent's compute mode
    at launch, re-applied here for the same reason — a float32 training
    run must stay float32 inside every rank process.  ``heartbeats``
    is the shared per-rank last-alive array (or ``None``); when
    present, this rank's :func:`repro.obs.metrics.heartbeat` beats are
    mirrored into slot ``rank`` so the parent's supervisor can detect a
    stall without any queue traffic.  ``share`` is the rank's conv
    kernel threads, computed in the parent.
    """
    trace_on, perf_on, metrics_on = (*obs_flags, False, False)[:3]
    from ..tensor.precision import set_precision

    set_precision(precision)
    trace.set_rank(rank)
    _set_share(share)
    if trace_on:
        trace.reset()
        trace.enable()
    if perf_on:
        from ..tensor import perf

        perf.reset()
        perf.enable()
    if metrics_on:
        obs_metrics.reset()
        obs_metrics.enable()
    if heartbeats is not None:
        def _beat_sink(_rank: int | None, wall: float) -> None:
            heartbeats[rank] = wall

        obs_metrics.set_heartbeat_sink(_beat_sink)
        obs_metrics.heartbeat()  # arm the slot: stall detection needs a first beat
    comm = ProcessCommunicator(rank, size, mailboxes, deadlock_timeout)
    try:
        result = fn(comm)
        kind: str = "ok"
        value: Any = result
    except BaseException as exc:  # noqa: BLE001 - must propagate to the parent
        kind, value = "err", exc
    finally:
        obs_metrics.set_heartbeat_sink(None)
    bundle = None
    if trace_on or perf_on or metrics_on:
        # Captured on the error path too: post-mortem traces must
        # survive a crashed rank.
        from ..obs import aggregate

        bundle = aggregate.capture(rank)
    result_queue.put(_encode_outcome(rank, kind, value, bundle))


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _default_start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class _SharedArrayFinder(pickle.Pickler):
    """Pickles rank programs the way a non-``fork`` start method will,
    to refuse the one thing that would start but misbehave."""

    def reducer_override(self, obj: Any) -> Any:
        if is_shared(obj):
            raise CommunicatorError(
                "a shared_empty() array reaches rank processes only by fork "
                "inheritance: any other start method pickles it, so each rank "
                "would write a private copy the caller never sees"
            )
        return NotImplemented


def _reject_pickled_shared_arrays(fn: RankFn) -> None:
    try:
        _SharedArrayFinder(io.BytesIO()).dump(fn)
    except CommunicatorError:
        raise
    except Exception:  # noqa: BLE001 - Process.start() reports unpicklable programs
        pass


def run_parallel_processes(
    fn: RankFn,
    size: int,
    timeout: float | None = None,
    deadlock_timeout: float | None = DEADLOCK_TIMEOUT,
    start_method: str | None = None,
    heartbeat_timeout: float | None = None,
) -> list[Any]:
    """Run ``fn`` in one OS process per rank; returns per-rank
    results (see :func:`repro.mpi.run_parallel` for the contract).

    With ``heartbeat_timeout`` set, every rank mirrors its
    :func:`repro.obs.metrics.heartbeat` beats into a shared array and
    the supervision loop declares a rank **stalled** once its last beat
    is older than the timeout — aborting the world so live peers wake
    with :class:`DeadlockError` instead of blocking until the (much
    longer) deadlock timeout.  Ranks blocked in a receive keep beating
    while they poll their mailbox, so only truly silent ranks (stuck
    compute, an infinite loop, a wedged syscall) trip the timeout; it
    must comfortably exceed the longest expected gap between beats (an
    epoch of batches, a rollout step).  Beats are armed at worker
    start, so it also bounds the time to the program's first
    instrumented loop.
    """
    method = start_method if start_method is not None else _default_start_method()
    if method != "fork":
        _reject_pickled_shared_arrays(fn)
    ctx = multiprocessing.get_context(method)
    mailboxes = [ctx.Queue() for _ in range(size)]
    result_queue = ctx.Queue()
    from ..tensor import perf
    from ..tensor.precision import get_precision

    obs_flags = (trace.enabled(), perf.perf_enabled(), obs_metrics.enabled())
    precision = get_precision()
    heartbeats = (
        ctx.Array("d", size, lock=False) if heartbeat_timeout is not None else None
    )
    workers = [
        ctx.Process(
            target=_worker_main,
            args=(
                rank,
                size,
                fn,
                mailboxes,
                result_queue,
                deadlock_timeout,
                obs_flags,
                precision,
                heartbeats,
                _share(size),
            ),
            name=f"repro-rank-{rank}",
            daemon=True,
        )
        for rank in range(size)
    ]
    for worker in workers:
        worker.start()

    deadline = None if timeout is None else time.monotonic() + timeout
    outcomes: dict[int, tuple[str, Any]] = {}
    aborted = False
    timed_out = False
    empty_polls = 0
    stall_reason: str | None = None

    def abort_world(reason: str) -> None:
        nonlocal aborted
        if aborted:
            return
        aborted = True
        for mailbox in mailboxes:
            try:
                mailbox.put(_Abort(reason))
            except Exception:  # pragma: no cover - queue already torn down
                pass

    try:
        while len(outcomes) < size:
            if deadline is not None and time.monotonic() > deadline:
                timed_out = True
                abort_world(f"parallel region exceeded timeout {timeout}s")
                break
            try:
                report = result_queue.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                empty_polls += 1
                if heartbeats is not None and stall_reason is None:
                    now = time.time()
                    for rank, worker in enumerate(workers):
                        if rank in outcomes or not worker.is_alive():
                            continue
                        beat = heartbeats[rank]
                        if beat > 0 and now - beat > heartbeat_timeout:
                            stall_reason = (
                                f"rank {rank} stalled: no heartbeat for "
                                f"{now - beat:.2f}s (heartbeat_timeout="
                                f"{heartbeat_timeout}s)"
                            )
                            # Record the stall as this rank's outcome so
                            # supervision can finish even if it never
                            # reports; a late report (the rank was merely
                            # slow and wakes into the abort) overwrites
                            # it and ships the rank's telemetry bundle.
                            outcomes[rank] = ("err", CommunicatorError(stall_reason))
                            abort_world(stall_reason)
                            break
                for rank, worker in enumerate(workers):
                    if rank in outcomes or worker.is_alive():
                        continue
                    if worker.exitcode not in (0, None):
                        outcomes[rank] = (
                            "err",
                            CommunicatorError(
                                f"rank {rank} died with exit code {worker.exitcode} "
                                "without reporting a result"
                            ),
                        )
                        abort_world(str(outcomes[rank][1]))
                    elif empty_polls >= _LOST_WORKER_POLLS:
                        # Exited cleanly, queue repeatedly empty: the
                        # report is not coming.
                        outcomes[rank] = (
                            "err",
                            CommunicatorError(
                                f"rank {rank} exited without reporting a result"
                            ),
                        )
                        abort_world(str(outcomes[rank][1]))
                continue
            empty_polls = 0
            rank, kind, value, bundle = pickle.loads(report)
            if bundle is not None:
                # Absorb immediately — before any error handling — so
                # telemetry from a crashed rank survives the re-raise.
                from ..obs import aggregate

                aggregate.absorb(bundle)
            outcomes[rank] = (kind, value)
            if kind == "err":
                abort_world(f"{type(value).__name__}: {value}")

        # After a failure every rank has reported, nobody will receive
        # again: a rank still alive is flushing a mailbox write that
        # cannot complete, and waiting for it only delays the error.
        settled = aborted and len(outcomes) == size and stall_reason is None
        grace = time.monotonic() + (0.0 if settled else _ABORT_GRACE_SECONDS)
        for worker in workers:
            worker.join(max(0.0, grace - time.monotonic()))
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
                worker.join(1.0)
        # The loop above exits once every rank has an outcome — which a
        # detected stall synthesizes without a report.  If the stalled
        # rank was merely slow and reported after the loop ended, its
        # report (with its partial telemetry bundle) is still sitting in
        # the queue: drain it now, before the queues are closed.
        while True:
            try:
                report = result_queue.get_nowait()
            except (queue_module.Empty, OSError, EOFError):
                break
            try:
                rank, kind, value, bundle = pickle.loads(report)
            except Exception:  # pragma: no cover - torn queue at shutdown
                break
            if bundle is not None:
                from ..obs import aggregate

                aggregate.absorb(bundle)
            outcomes[rank] = (kind, value)
    finally:
        # The world is over: whatever is still queued has no receiver,
        # so nothing is read back and no feeder thread is waited for.
        for q in (*mailboxes, result_queue):
            q.cancel_join_thread()
            q.close()

    if timed_out and len(outcomes) < size:
        raise CommunicatorError(f"parallel region exceeded timeout {timeout}s")

    errors = sorted(
        (rank, value) for rank, (kind, value) in outcomes.items() if kind == "err"
    )
    if errors:
        # Peers of a failed rank typically die with the induced abort
        # DeadlockError; report the root cause instead.  When the root
        # cause was a detected stall and the stalled rank's own report
        # (a DeadlockError from waking into the abort) overwrote the
        # stall outcome, resurface the stall.
        primary = [e for e in errors if not isinstance(e[1], DeadlockError)]
        if not primary and stall_reason is not None:
            raise CommunicatorError(stall_reason)
        _, first = (primary or errors)[0]
        raise first
    return [outcomes[rank][1] for rank in range(size)]
