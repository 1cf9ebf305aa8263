"""Property-based decomposition invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domain import BlockDecomposition, split_extent
from repro.domain.decomposition import dims_create
from repro.exceptions import DecompositionError


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
    num_ranks = min(num_ranks, height * width)
    pgrid = dims_create(num_ranks)
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


def padded_reference(field, decomp, rank, halo, fill):
    """``extract`` the way it used to be built: ``np.pad`` the whole
    field axis by axis (wrap on a periodic axis, ``fill`` at a wall),
    then cut the block out of it."""
    lead = [(0, 0)] * (field.ndim - 2)
    modes = ["wrap" if wraps else {"zero": "constant", "edge": "edge"}[fill]
             for wraps in decomp.periodic]
    padded = np.pad(field, lead + [(halo, halo), (0, 0)], mode=modes[0])
    padded = np.pad(padded, lead + [(0, 0), (halo, halo)], mode=modes[1])
    (y0, y1), (x0, x1) = decomp.subdomain(rank).y_range, decomp.subdomain(rank).x_range
    return padded[..., y0 : y1 + 2 * halo, x0 : x1 + 2 * halo]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_exchange_extract_and_extract_out_agree(data):
    """On every rank the two-sided exchange, the one-sided ``extract``
    and the pad-the-whole-field reference give the same halo cut of the
    global field, whether it is assembled in a new array or in a
    caller's buffer that still holds garbage from an earlier use."""
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
    decomp.check_halo(halo)
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
        expected = padded_reference(field, decomp, rank, halo, fill)
        assert np.array_equal(fresh, expected)
        assert np.array_equal(reused, expected)
        assert np.array_equal(decomp.extract(field, rank, halo=halo, fill=fill), expected)
        garbage = np.full(expected.shape, np.nan)
        assert decomp.extract(field, rank, halo, fill, out=garbage) is garbage
        assert np.array_equal(garbage, expected)


@given(st.integers(1, 4), st.integers(1, 4), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_halo_peers_are_the_other_blocks_a_halo_cut_reads(py, px, wrap_y, wrap_x):
    """Mark every block with its rank: the marks in a halo cut, minus
    the fill and the rank's own, are exactly ``halo_peers`` — and the
    relation is symmetric, so post sets and wait sets coincide."""
    decomp = BlockDecomposition((py * 2 + 1, px * 2), (py, px), periodic=(wrap_y, wrap_x))
    owner = decomp.assemble(
        [np.full(sub.shape, float(sub.rank)) for sub in decomp.subdomains()]
    )
    for rank in range(decomp.num_subdomains):
        # +1 / -1 so the zero fill beyond a wall is not a rank
        seen = set(np.unique(decomp.extract(owner + 1.0, rank, halo=2) - 1.0).astype(int))
        assert set(decomp.halo_peers(rank)) == seen - {-1, rank}
        for peer in decomp.halo_peers(rank):
            assert rank in decomp.halo_peers(peer)


def test_out_of_the_wrong_shape_or_dtype_is_rejected():
    decomp = BlockDecomposition((8, 8), (2, 2))
    field = np.zeros((3, 8, 8))
    with pytest.raises(DecompositionError, match="out is"):
        decomp.extract(field, 0, halo=1, out=np.empty((3, 6, 7)))
    with pytest.raises(DecompositionError, match="out is"):
        decomp.extract(field, 0, halo=1, out=np.empty((3, 6, 6), np.float32))
    with pytest.raises(DecompositionError, match="smallest block"):
        decomp.check_halo(5)
