"""Property-based decomposition invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domain import BlockDecomposition, split_extent


@given(st.integers(1, 200), st.data())
@settings(max_examples=100, deadline=None)
def test_split_extent_partition_properties(n, data):
    parts = data.draw(st.integers(1, n))
    ranges = split_extent(n, parts)
    sizes = [hi - lo for lo, hi in ranges]
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1
    assert ranges[0][0] == 0 and ranges[-1][1] == n
    # Contiguity.
    for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
        assert hi == lo


@given(
    st.integers(4, 20),
    st.integers(4, 20),
    st.integers(1, 8),
)
@settings(max_examples=60, deadline=None)
def test_extract_assemble_roundtrip(height, width, num_ranks):
    from repro.mpi import dims_create

    num_ranks = min(num_ranks, height * width)
    pgrid = dims_create(num_ranks, 2)
    if pgrid[0] > height or pgrid[1] > width:
        return
    decomp = BlockDecomposition((height, width), pgrid)
    rng = np.random.default_rng(height * 100 + width)
    field = rng.standard_normal((2, height, width))
    pieces = [decomp.extract(field, r) for r in range(decomp.num_subdomains)]
    assert np.allclose(decomp.assemble(pieces), field)


@given(
    st.integers(6, 16),
    st.integers(1, 4),
    st.integers(1, 2),
)
@settings(max_examples=60, deadline=None)
def test_halo_extract_shape_invariant(size, num_ranks, halo):
    decomp = BlockDecomposition.from_num_ranks((size, size), num_ranks)
    rng = np.random.default_rng(size)
    field = rng.standard_normal((1, size, size))
    for rank in range(decomp.num_subdomains):
        sub = decomp.subdomain(rank)
        block = decomp.extract(field, rank, halo=halo)
        assert block.shape == (1, sub.shape[0] + 2 * halo, sub.shape[1] + 2 * halo)
        # The interior of the halo block is exactly the plain block.
        inner = block[:, halo:-halo, halo:-halo]
        assert np.allclose(inner, decomp.extract(field, rank))


@given(st.integers(2, 5), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_neighbour_symmetry(py, px):
    """If B is A's +x neighbour then A is B's -x neighbour, etc."""
    decomp = BlockDecomposition((py * 3, px * 3), (py, px))
    for rank in range(decomp.num_subdomains):
        for axis in (0, 1):
            for direction in (-1, 1):
                other = decomp.neighbour(rank, axis, direction)
                if other is not None:
                    assert decomp.neighbour(other, axis, -direction) == rank


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_in_place_exchange_matches_extract(data):
    """On every rank the exchanged field is the halo cut of the global
    field, whether it is assembled in a new array or in a caller's
    buffer that still holds garbage from an earlier use."""
    from repro import mpi
    from repro.domain import HaloExchanger

    pgrid = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
    halo = data.draw(st.integers(1, 3))
    # every block at least ``halo`` lines wide, some unevenly split
    height = pgrid[0] * halo + data.draw(st.integers(0, 5))
    width = pgrid[1] * halo + data.draw(st.integers(0, 5))
    periodic = (data.draw(st.booleans()), data.draw(st.booleans()))
    fill = data.draw(st.sampled_from(["zero", "edge"]))
    lead = data.draw(st.sampled_from([(), (3,), (2, 2)]))
    decomp = BlockDecomposition((height, width), pgrid, periodic=periodic)
    field = np.random.default_rng(height * 31 + width).standard_normal(
        lead + (height, width)
    )

    def program(comm):
        exchanger = HaloExchanger(comm, decomp, halo, fill)
        local = decomp.extract(field, comm.rank)
        fresh = exchanger.exchange(local)
        buffer = np.full(fresh.shape, np.nan)
        for _ in range(2):  # the second pass overwrites the first's result
            assert exchanger.exchange(local, out=buffer) is buffer
            buffer += 1.0
        exchanger.exchange(local, out=buffer)
        return fresh, buffer

    outputs = mpi.run_parallel(program, decomp.num_subdomains)
    for rank, (fresh, reused) in enumerate(outputs):
        expected = decomp.extract(field, rank, halo=halo, fill=fill)
        assert np.array_equal(fresh, expected)
        assert np.array_equal(reused, expected)
