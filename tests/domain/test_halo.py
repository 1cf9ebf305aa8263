"""Halo-exchange tests: the parallel exchange must agree bit-for-bit
with direct extraction from the global field."""

import numpy as np
import pytest

from repro import mpi
from repro.analysis import MpiSanitizer
from repro.domain import BlockDecomposition, HaloExchanger
from repro.exceptions import DecompositionError
from repro.mpi.api import MAX_USER_TAG


@pytest.mark.parametrize("num_ranks", [1, 2, 4, 6, 9])
@pytest.mark.parametrize("halo", [1, 2])
@pytest.mark.parametrize("fill", ["zero", "edge"])
def test_exchange_matches_direct_extraction(rng, num_ranks, halo, fill):
    field = rng.standard_normal((3, 12, 18))
    decomp = BlockDecomposition.from_num_ranks((12, 18), num_ranks)

    def program(comm):
        local = decomp.extract(field, comm.rank)
        exchanger = HaloExchanger(comm, decomp, halo=halo, fill=fill)
        extended = exchanger.exchange(local)
        expected = decomp.extract(field, comm.rank, halo=halo, fill=fill)
        assert extended.shape == expected.shape
        assert np.allclose(extended, expected)
        return True

    assert all(mpi.run_parallel(program, num_ranks))


def test_corner_data_transported(rng):
    """Diagonal-neighbour data must arrive via the two-phase exchange."""
    field = rng.standard_normal((1, 8, 8))
    decomp = BlockDecomposition((8, 8), (2, 2))

    def program(comm):
        local = decomp.extract(field, comm.rank)
        extended = HaloExchanger(comm, decomp, halo=2).exchange(local)
        if comm.rank == 0:
            # Bottom-right halo corner of rank 0 = top-left of rank 3.
            assert np.allclose(extended[:, -2:, -2:], field[:, 4:6, 4:6])
        return True

    assert all(mpi.run_parallel(program, 4))


def test_messages_per_exchange_counts():
    decomp = BlockDecomposition((12, 12), (3, 3))

    def program(comm):
        HaloExchanger(comm, decomp, halo=1)
        return HaloExchanger(comm, decomp, halo=1).messages_per_exchange

    counts = mpi.run_parallel(program, 9)
    # 2 messages per existing axis neighbour.
    assert counts == [2, 3, 2, 3, 4, 3, 2, 3, 2]


def test_repeated_exchanges_reuse_plan(rng):
    field = rng.standard_normal((2, 8, 8))
    decomp = BlockDecomposition((8, 8), (2, 2))

    def program(comm):
        exchanger = HaloExchanger(comm, decomp, halo=1)
        local = decomp.extract(field, comm.rank)
        for _ in range(5):
            extended = exchanger.exchange(local)
        expected = decomp.extract(field, comm.rank, halo=1)
        return np.allclose(extended, expected)

    assert all(mpi.run_parallel(program, 4))


class TestValidation:
    def test_halo_too_large_raises(self):
        decomp = BlockDecomposition((8, 8), (2, 2))

        def program(comm):
            with pytest.raises(DecompositionError):
                HaloExchanger(comm, decomp, halo=5)
            return True

        assert all(mpi.run_parallel(program, 4))

    def test_size_mismatch_raises(self):
        decomp = BlockDecomposition((8, 8), (2, 2))

        def program(comm):
            with pytest.raises(DecompositionError):
                HaloExchanger(comm, decomp, halo=1)
            return True

        assert all(mpi.run_parallel(program, 2))

    def test_zero_halo_raises(self):
        decomp = BlockDecomposition((8, 8), (2, 2))

        def program(comm):
            with pytest.raises(DecompositionError):
                HaloExchanger(comm, decomp, halo=0)
            return True

        assert all(mpi.run_parallel(program, 4))

    def test_wrong_local_shape_raises(self, rng):
        decomp = BlockDecomposition((8, 8), (2, 2))

        def program(comm):
            exchanger = HaloExchanger(comm, decomp, halo=1)
            with pytest.raises(DecompositionError):
                exchanger.exchange(rng.standard_normal((1, 3, 3)))
            return True

        assert all(mpi.run_parallel(program, 4))

    def test_wrong_out_buffer_raises_before_any_message(self, rng):
        decomp = BlockDecomposition((8, 8), (2, 2))

        def program(comm):
            exchanger = HaloExchanger(comm, decomp, halo=1)
            local = rng.standard_normal((1, 4, 4))
            for bad in (np.empty((1, 4, 4)), np.empty((1, 6, 6), dtype=np.float32)):
                with pytest.raises(DecompositionError, match="out is"):
                    exchanger.exchange(local, out=bad)
            comm.barrier()
            return True

        with MpiSanitizer() as sanitizer:
            assert all(mpi.run_parallel(program, 4))
        # No rank sent a strip: the barrier's reserved tags are the only traffic.
        (audit,) = sanitizer.report.audits
        assert audit.posted and all(tag >= MAX_USER_TAG for _, _, tag in audit.posted)
