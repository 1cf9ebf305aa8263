"""``dims_create``: the balanced process grid behind
``BlockDecomposition.from_num_ranks``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domain.decomposition import dims_create
from repro.exceptions import DecompositionError

#: ``Px`` of ``MPI_Dims_create``-style ``dims_create(n, 2)`` for
#: n = 1..64, as the general n-D version returned it; ``Py = n // Px``.
EXPECTED_PX = [
    1, 1, 1, 2, 1, 2, 1, 2, 3, 2, 1, 3, 1, 2, 3, 4,
    1, 3, 1, 4, 3, 2, 1, 4, 5, 2, 3, 4, 1, 5, 1, 4,
    3, 2, 5, 6, 1, 2, 3, 5, 1, 6, 1, 4, 5, 2, 1, 6,
    7, 5, 3, 4, 1, 6, 5, 7, 3, 2, 1, 6, 1, 2, 7, 8,
]  # fmt: skip


@pytest.mark.parametrize("size, px", enumerate(EXPECTED_PX, start=1))
def test_pinned_grids_up_to_64_ranks(size, px):
    assert dims_create(size) == (size // px, px)


@pytest.mark.parametrize(
    "size, grid",
    [(64, (8, 8)), (16, (4, 4)), (12, (4, 3)), (2, (2, 1)), (7, (7, 1)), (97, (97, 1))],
)
def test_examples(size, grid):
    assert dims_create(size) == grid


@pytest.mark.parametrize("size", [0, -4])
def test_invalid_raises(size):
    with pytest.raises(DecompositionError):
        dims_create(size)


@given(st.integers(1, 512))
@settings(max_examples=100, deadline=None)
def test_product_order_and_balance(size):
    """The factorization multiplies to ``size``, puts the larger factor
    first and is the most balanced one possible."""
    py, px = dims_create(size)
    assert py * px == size and py >= px >= 1
    best = min(
        max(a, size // a) - min(a, size // a) for a in range(1, size + 1) if size % a == 0
    )
    assert py - px == best
