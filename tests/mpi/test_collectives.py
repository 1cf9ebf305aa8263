"""Collective operations over the generic point-to-point layer
(both execution backends)."""

import numpy as np
import pytest

from repro import mpi

SIZES = [1, 2, 3, 5, 8]


@pytest.mark.parametrize("size", SIZES)
class TestCollectives:
    def test_barrier_completes(self, size, launch):
        def program(comm):
            for _ in range(3):
                comm.barrier()
            return True

        assert all(launch(program, size))

    def test_allreduce_sum(self, size, launch):
        def program(comm):
            return comm.allreduce(comm.rank + 1)

        assert launch(program, size) == [size * (size + 1) // 2] * size

    def test_allreduce_array(self, size, launch):
        def program(comm):
            return comm.allreduce(np.full(3, float(comm.rank)), op=mpi.MAX)

        for result in launch(program, size):
            assert np.allclose(result, size - 1)

    def test_allreduce_max_scalar(self, size, launch):
        def program(comm):
            return comm.allreduce(10 - comm.rank, op=mpi.MAX)

        assert launch(program, size) == [10] * size

    def test_allreduce_elementwise_array_sum(self, size, launch):
        def program(comm):
            return comm.allreduce(np.arange(4.0) * comm.rank)

        expected = np.arange(4.0) * (size * (size - 1) // 2)
        for result in launch(program, size):
            assert np.array_equal(result, expected)

    def test_allreduce_bit_identical_on_every_rank(self, size, launch):
        """The root reduces once and broadcasts, so every rank holds the
        same bits: the rank-order sequential sum."""

        def term(rank):
            return 0.1 * (rank + 1) + 1.0 / 3.0

        def program(comm):
            return comm.allreduce(term(comm.rank)).hex()

        expected = 0.0 + term(0)
        for rank in range(1, size):
            expected = expected + term(rank)
        assert launch(program, size) == [expected.hex()] * size

    def test_back_to_back_collectives_stay_in_step(self, size, launch):
        """Each collective draws a fresh reserved tag, so consecutive
        calls cannot steal each other's messages."""

        def program(comm):
            totals = [comm.allreduce(i + comm.rank) for i in range(20)]
            comm.barrier()
            return totals

        offset = size * (size - 1) // 2
        assert launch(program, size) == [[i * size + offset for i in range(20)]] * size

    def test_bcast(self, size, launch):
        """The broadcast step of ``allreduce``: rank 0's payload reaches
        every rank."""

        def program(comm):
            payload = {"v": 7} if comm.rank == 0 else None
            return comm._bcast(payload)

        assert launch(program, size) == [{"v": 7}] * size

    def test_gather(self, size, launch):
        """The gather step of ``allreduce``: every payload at rank 0 in
        rank order, ``None`` elsewhere."""

        def program(comm):
            return comm._gather(comm.rank**2)

        results = launch(program, size)
        assert results[0] == [r**2 for r in range(size)]
        assert all(r is None for r in results[1:])

    def test_ring_exchange(self, size, launch):
        """Every rank sends right and receives from the left, the
        pattern of one halo sweep along a periodic axis."""

        def program(comm):
            comm.send(("from", comm.rank), dest=(comm.rank + 1) % size, tag=4)
            return comm.recv(source=(comm.rank - 1) % size, tag=4)

        assert launch(program, size) == [("from", (r - 1) % size) for r in range(size)]

    def test_interleaved_collectives_and_pt2pt(self, size, launch):
        """Collectives use reserved tags: user traffic cannot collide."""

        def program(comm):
            if size > 1:
                comm.send(comm.rank, dest=(comm.rank + 1) % size, tag=0)
            total = comm.allreduce(1)
            if size > 1:
                neighbour = comm.recv(source=(comm.rank - 1) % size, tag=0)
                assert neighbour == (comm.rank - 1) % size
            return total

        assert launch(program, size) == [size] * size


class TestReduceOrder:
    def test_allreduce_combines_in_rank_order(self, launch):
        """Payloads are combined in rank order (reproducibility): list
        concatenation under SUM exposes the order."""

        def program(comm):
            return comm.allreduce([comm.rank], op=mpi.SUM)

        assert launch(program, 5) == [[0, 1, 2, 3, 4]] * 5
