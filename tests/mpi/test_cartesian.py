"""Cartesian topology inside a running world (both execution backends
where ranks run).

The process grid is :class:`~repro.domain.BlockDecomposition`: each
rank looks up its own coordinates and neighbours there and talks to
them through the plain world communicator, as the halo exchange does.
"""

import pytest

from repro.domain import BlockDecomposition, HaloExchanger
from repro.domain.decomposition import dims_create
from repro.exceptions import DecompositionError


class TestCoordinateMath:
    def test_roundtrip_all_ranks(self, launch):
        def program(comm):
            grid = BlockDecomposition((12, 12), (2, 3))
            assert grid.rank_of(grid.coords_of(comm.rank)) == comm.rank
            return grid.coords_of(comm.rank)

        coords = launch(program, 6)
        assert coords == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_dims_mismatch_raises(self, launch):
        def program(comm):
            with pytest.raises(DecompositionError):
                HaloExchanger(comm, BlockDecomposition((8, 8), (2, 2)), 1)  # needs 4 ranks
            return True

        assert all(launch(program, 2))

    def test_shift_non_periodic(self, launch):
        def program(comm):
            grid = BlockDecomposition((6, 6), (1, 3))
            return grid.neighbour(comm.rank, 1, -1), grid.neighbour(comm.rank, 1, +1)

        shifts = launch(program, 3)
        assert shifts == [(None, 1), (0, 2), (1, None)]

    def test_shift_periodic_wraps(self, launch):
        def program(comm):
            grid = BlockDecomposition((6, 6), (1, 3), periodic=(False, True))
            return grid.neighbour(comm.rank, 1, -1), grid.neighbour(comm.rank, 1, +1)

        shifts = launch(program, 3)
        assert shifts == [(2, 1), (0, 2), (1, 0)]

    def test_neighbours_interior_vs_corner(self, launch):
        def program(comm):
            grid = BlockDecomposition((9, 9), (3, 3))
            return sum(
                grid.neighbour(comm.rank, axis, direction) is not None
                for axis in (0, 1)
                for direction in (-1, 1)
            )

        counts = launch(program, 9)
        # Corner ranks have 2 neighbours, edges 3, centre 4.
        assert counts == [2, 3, 2, 3, 4, 3, 2, 3, 2]

    def test_out_of_range_coordinate_raises(self):
        grid = BlockDecomposition((4, 4), (1, 1))
        with pytest.raises(DecompositionError):
            grid.rank_of((0, 5))
        with pytest.raises(DecompositionError):
            grid.coords_of(9)

    def test_bad_axis_raises(self):
        grid = BlockDecomposition((4, 4), (1, 1))
        with pytest.raises(DecompositionError):
            grid.neighbour(0, axis=5, direction=1)


class TestCartCommunication:
    def test_messaging_through_cart(self, launch):
        """Neighbours from the decomposition address the world
        communicator directly; collectives still span every rank."""

        def program(comm):
            grid = BlockDecomposition((12, 12), dims_create(comm.size))
            right = grid.neighbour(comm.rank, 1, +1)
            left = grid.neighbour(comm.rank, 1, -1)
            if right is not None:
                comm.send(grid.coords_of(comm.rank), dest=right, tag=1)
            received = None
            if left is not None:
                received = comm.recv(source=left, tag=1)
            assert comm.allreduce(1) == comm.size
            return received

        results = launch(program, 6)
        # dims_create(6) is (3, 2): each row's right-hand rank hears its left neighbour.
        assert results == [None, (0, 0), None, (1, 0), None, (2, 0)]
