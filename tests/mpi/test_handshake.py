"""``mpi.Handshake``: ordering reads of a ``shared_empty`` array.

The protocol (a post after every write, a wait before every read of a
neighbour's part) must deliver exactly the sequential result on both
backends with more ranks than cores, and a rank that fails while its
peer is blocked in ``wait`` must surface as its own typed error, within
the timeout, leaving nothing in ``/dev/shm`` and no mapping behind.
"""

import gc
import os
import sys
import time

import numpy as np
import pytest

from repro import mpi
from repro.exceptions import CommunicatorError, DeadlockError

from ..conftest import dev_shm_entries, shared_mappings


def ring_sources(size):
    return [sorted({(rank - 1) % size, (rank + 1) % size} - {rank}) for rank in range(size)]


def ring_program(frames, handshake, steps, fault=None):
    """Frame t+1 of a rank is the sum of frame t of itself and its ring
    neighbours: any read that overtakes its write picks up a NaN.
    ``fault`` strikes rank 1 at step 2, before it writes frame 3."""
    size = frames.shape[1]

    def program(comm):
        rank = comm.rank
        for step in range(steps):
            if step:
                handshake.wait(comm, step)
            if fault is not None and rank == 1 and step == 2:
                fault()
            frames[step + 1, rank] = (
                frames[step, (rank - 1) % size]
                + frames[step, rank]
                + frames[step, (rank + 1) % size]
            ) % 1000.0
            handshake.post(rank)

    return program


class TestProtocol:
    @pytest.mark.parametrize("size", [2, 3, 7])  # 7 ranks on a 2-core box
    def test_ring_matches_the_sequential_result(self, launch, size):
        steps = 60
        frames = mpi.shared_empty((steps + 1, size), np.float64)
        frames[...] = np.nan
        frames[0] = np.arange(size) + 1.0
        expected = frames.copy()
        for step in range(steps):
            row = expected[step]
            expected[step + 1] = (np.roll(row, 1) + row + np.roll(row, -1)) % 1000.0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # make the rank threads interleave hard
        try:
            launch(ring_program(frames, mpi.Handshake(ring_sources(size)), steps), size, timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(frames, expected)

    def test_posts_are_counted_per_edge(self, launch):
        """A writer may run ahead: its posts queue up on its own edge and
        do not satisfy a wait on a silent one."""
        handshake = mpi.Handshake([[1, 2], [], []])

        def program(comm):
            if comm.rank == 1:
                for _ in range(3):
                    handshake.post(1)
            if comm.rank == 0:
                comm.deadlock_timeout = 0.4
                with pytest.raises(DeadlockError, match="rank 0 .* rank 2 .* step 5"):
                    handshake.wait(comm, 5)  # rank 1 posted thrice, rank 2 never

        launch(program, 3, timeout=30)

    @pytest.mark.parametrize("sources", [[[0], []], [[2], []], [[-1], []]])
    def test_edges_must_join_two_ranks_of_the_world(self, sources):
        with pytest.raises(CommunicatorError, match="cannot wait for rank"):
            mpi.Handshake(sources)


def _raise():
    raise FloatingPointError("diverged at step 2")


def _exit():
    os._exit(3)


def _hang():
    time.sleep(2.0)  # bounded: a rank thread cannot be killed


#: fault, backend, launcher arguments, the root-cause error
CELLS = [
    pytest.param(_raise, "threads", {}, (FloatingPointError, "diverged at step 2"), id="raise-threads"),
    pytest.param(_raise, "processes", {}, (FloatingPointError, "diverged at step 2"), id="raise-processes"),
    pytest.param(_exit, "processes", {}, (CommunicatorError, "rank 1 died with exit code 3"), id="exit-processes"),
    # no supervisor watches a thread: the blocked peer's watchdog is the report
    pytest.param(
        _hang, "threads", {"deadlock_timeout": 0.5},
        (DeadlockError, "rank 0 timed out after 0.5s waiting for rank 1 to post step 3"),
        id="hang-threads",
    ),
    # the blocked peer keeps beating, so the silent rank is the one named
    pytest.param(
        _hang, "processes", {"heartbeat_timeout": 0.5},
        (CommunicatorError, "rank 1 stalled"), id="hang-processes",
    ),
]


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc")
class TestFaultWhilePeerWaits:
    @pytest.mark.parametrize("fault, backend, options, error", CELLS)
    def test_root_cause_in_time_and_nothing_left(self, fault, backend, options, error):
        gc.collect()
        mappings, entries = shared_mappings(), dev_shm_entries()
        frames = mpi.shared_empty((6, 2), np.float64)
        frames[0] = 1.0
        # rank 0 gets as far as wait(step 3) and blocks on the faulty rank
        program = ring_program(frames, mpi.Handshake(ring_sources(2)), 5, fault)
        kind, message = error
        start = time.monotonic()
        with pytest.raises(kind, match=message):
            mpi.run_parallel(program, 2, backend=backend, timeout=30, **options)
        assert time.monotonic() - start < 15.0
        del frames, program
        gc.collect()
        assert shared_mappings() == mappings
        assert dev_shm_entries() <= entries
