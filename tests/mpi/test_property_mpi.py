"""Property-based tests on reductions."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mpi


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_allreduce_sum_matches_python_sum(values):
    size = len(values)

    def program(comm):
        return comm.allreduce(values[comm.rank], op=mpi.SUM)

    results = mpi.run_parallel(program, size)
    assert results == [sum(values)] * size


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=5))
@settings(max_examples=30, deadline=None)
def test_allreduce_max_matches_python_max(values):
    size = len(values)

    def program(comm):
        return comm.allreduce(values[comm.rank], op=mpi.MAX)

    results = mpi.run_parallel(program, size)
    assert all(np.isclose(r, max(values)) for r in results)
