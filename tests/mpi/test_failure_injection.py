"""Failure-injection tests for the message-passing runtime.

The launcher must behave sanely when ranks die, hang, or flood the
router — the properties a long-running training job relies on.  The
behavioural guarantees are checked on both execution backends; tests
that poke the in-process ``MessageRouter`` directly stay thread-side.
"""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro import mpi
from repro.exceptions import CommunicatorError, DeadlockError
from repro.mpi.router import MessageRouter

from ..conftest import dev_shm_entries


class TestAbortSemantics:
    def test_abort_wakes_blocked_receivers(self, launch):
        """A rank crash must not leave peers blocked forever."""
        start = time.monotonic()

        def program(comm):
            if comm.rank == 0:
                raise RuntimeError("early death")
            # Would block for the full watchdog window without abort.
            comm.recv(source=0, tag=1, timeout=30.0)

        with pytest.raises(RuntimeError, match="early death"):
            launch(program, 2)
        assert time.monotonic() - start < 10.0

    def test_abort_poisons_future_receives(self):
        router = MessageRouter(2)
        router.post(1, 0, 4, "queued before the abort")
        router.abort(ValueError("poisoned"))
        with pytest.raises(DeadlockError):
            router.collect(0, 1, 4, timeout=1.0)
        with pytest.raises(DeadlockError):
            router.raise_if_aborted()

    def test_multiple_rank_failures_report_first_by_rank(self, launch):
        def program(comm):
            raise ValueError(f"rank {comm.rank}")

        with pytest.raises(ValueError, match="rank 0"):
            launch(program, 3)

    def test_exception_in_one_of_many_does_not_hang_collectives(self, launch):
        def program(comm):
            if comm.rank == 2:
                raise KeyError("lost rank")
            comm.barrier()

        with pytest.raises(KeyError):
            launch(program, 4)


class TestSendNobodyReceives:
    """ROADMAP item 10's "mid-send" cells: a message larger than the
    64 KiB pipe is sent to a rank that fails without receiving it.  The
    sender's mailbox write can then never complete; the launcher must
    still name the root cause, reclaim every process and leave nothing
    in ``/dev/shm``."""

    @pytest.mark.parametrize(
        "backend,death",
        # os._exit in a rank *thread* would end the test process.
        [("threads", "raise"), ("processes", "raise"), ("processes", "os._exit")],
    )
    @pytest.mark.parametrize("drained", [True, False], ids=["drained", "never-received"])
    @pytest.mark.parametrize("nbytes", [100_000, 4 << 20])
    def test_root_cause_error_and_nothing_left_behind(self, backend, death, drained, nbytes):
        entries = dev_shm_entries()

        def program(comm):
            if comm.rank == 0:
                comm.send(np.zeros(nbytes // 8), dest=1, tag=1)
            if drained:
                comm.barrier()  # rank 1 pulls the message into its local inbox
            if comm.rank == 1:
                if death == "os._exit":
                    os._exit(3)
                raise RuntimeError("receiver died before recv")

        expected = (
            pytest.raises(RuntimeError, match="receiver died")
            if death == "raise"
            else pytest.raises(CommunicatorError, match="exit code 3")
        )
        start = time.monotonic()
        with expected:
            mpi.run_parallel(program, 2, backend=backend)
        assert time.monotonic() - start < 15.0
        assert multiprocessing.active_children() == []
        assert dev_shm_entries() == entries


class TestTimeouts:
    def test_region_timeout_aborts_hung_world(self, launch):
        release = threading.Event()

        def program(comm):
            # Hang without ever posting a receive.  (Under the process
            # backend each rank sleeps on its own copy of the event and
            # is reclaimed by the launcher's grace-then-terminate path.)
            release.wait(20.0)

        start = time.monotonic()
        try:
            with pytest.raises(CommunicatorError, match="exceeded timeout"):
                launch(program, 2, timeout=0.5, deadlock_timeout=None)
        finally:
            release.set()
        # The launcher must come back promptly, not after 20s.
        assert time.monotonic() - start < 15.0

    def test_watchdog_disabled_with_none(self, launch):
        """deadlock_timeout=None means block indefinitely: verify the
        message does eventually arrive in a slow-sender scenario."""

        def program(comm):
            if comm.rank == 0:
                time.sleep(0.3)
                comm.send("late", dest=1, tag=1)
                return None
            return comm.recv(source=0, tag=1)

        results = launch(program, 2, deadlock_timeout=None)
        assert results[1] == "late"


class TestStress:
    def test_many_small_messages_all_delivered(self, launch):
        count = 300

        def program(comm):
            peer = 1 - comm.rank
            for i in range(count):
                comm.send((comm.rank, i), dest=peer, tag=i % 7)
            received = [comm.recv(source=peer, tag=i % 7) for i in range(count)]
            return sorted(m[1] for m in received)

        results = launch(program, 2)
        assert results[0] == sorted(range(count))
        assert results[1] == sorted(range(count))

    def test_large_array_payloads(self, launch):
        """200k float64 is 25 pipe buffers' worth on the process
        backend: the receiver must drain it while the sender writes."""
        payload = np.arange(200_000, dtype=np.float64)

        def program(comm):
            if comm.rank == 0:
                comm.send(payload, dest=1, tag=1)
                return None
            received = comm.recv(source=0, tag=1)
            return float(received.sum())

        results = launch(program, 2)
        assert results[1] == float(payload.sum())

    def test_repeated_worlds_do_not_leak_state(self, launch):
        """Fresh run_parallel calls must not see old messages."""

        def sender(comm):
            comm.send("stale", dest=(comm.rank + 1) % comm.size, tag=3)
            # Deliberately do NOT receive.
            return True

        assert all(launch(sender, 2))

        def receiver(comm):
            try:
                comm.recv(source=(comm.rank - 1) % comm.size, tag=3, timeout=0.2)
            except DeadlockError:
                return False
            return True

        assert launch(receiver, 2) == [False, False]
