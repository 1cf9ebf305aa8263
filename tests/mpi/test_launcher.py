"""Launcher (run_parallel) tests.

Backend-agnostic behaviour goes through the ``launch`` fixture; a test
that relies on in-process state (a shared ``threading`` primitive) pins
the thread backend explicitly.
"""

import threading

import numpy as np
import pytest

from repro import mpi
from repro.exceptions import CommunicatorError, DeadlockError


class TestSPMD:
    def test_results_in_rank_order(self, launch):
        results = launch(lambda comm: comm.rank * 2, 5)
        assert results == [0, 2, 4, 6, 8]

    def test_world_size_visible(self, launch):
        assert launch(lambda comm: comm.size, 3) == [3, 3, 3]

    def test_ranks_run_concurrently(self):
        """Blocking receives must not serialize independent ranks.

        Thread backend only: a shared ``threading.Barrier`` can only
        synchronise ranks living in the same process.  (Process-backend
        concurrency is exercised by the pt2pt exchange patterns, which
        deadlock under serialized execution.)
        """
        barrier = threading.Barrier(3, timeout=10.0)

        def program(comm):
            barrier.wait()  # passes only if all three threads are live
            return True

        assert all(mpi.run_parallel(program, 3))


class TestSingleRankWorld:
    def test_identity(self, launch):
        assert launch(lambda comm: (comm.rank, comm.size), 1) == [(0, 1)]

    def test_collectives_degenerate(self, launch):
        def program(comm):
            comm.barrier()  # must not block
            return comm.allreduce(5), comm.allreduce(np.ones(2), op=mpi.MAX).tolist()

        assert launch(program, 1) == [(5, [1.0, 1.0])]

    def test_self_messaging(self, launch):
        def program(comm):
            comm.send("loop", dest=0, tag=2)
            return comm.recv(source=0, tag=2)

        assert launch(program, 1) == ["loop"]


class TestErrorPropagation:
    def test_rank_exception_reraised(self, launch):
        def program(comm):
            if comm.rank == 1:
                raise ValueError("rank 1 exploded")
            comm.barrier()

        with pytest.raises(ValueError, match="rank 1 exploded"):
            launch(program, 3)

    def test_original_error_preferred_over_induced_deadlock(self, launch):
        def program(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=1)  # dies with induced DeadlockError
            raise RuntimeError("root cause")

        with pytest.raises(RuntimeError, match="root cause"):
            launch(program, 2)

    def test_pure_deadlock_raises_deadlock_error(self, launch):
        def program(comm):
            comm.recv(source=(comm.rank + 1) % comm.size, tag=0)

        with pytest.raises(DeadlockError):
            launch(program, 2, deadlock_timeout=0.2)

    def test_invalid_size_raises(self):
        with pytest.raises(CommunicatorError):
            mpi.run_parallel(lambda c: None, 0)

    def test_unknown_backend_raises(self):
        with pytest.raises(CommunicatorError, match="unknown backend"):
            mpi.run_parallel(lambda c: None, 1, backend="carrier-pigeon")
