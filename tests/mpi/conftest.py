"""Shared fixtures for the communicator contract suite.

Every semantic guarantee of the runtime (ordering, collectives,
failure handling) must hold identically on the thread backend and the
process backend, so the contract tests take the ``launch`` fixture
instead of calling ``mpi.run_parallel`` directly — pytest then runs
each of them once per backend.

Tests that are inherently single-backend (direct ``MessageRouter``
inspection, ``threading`` synchronisation across ranks) keep calling
``mpi.run_parallel`` and are not parameterized.
"""

import pytest

from repro import mpi
from repro.mpi.launcher import BACKENDS


@pytest.fixture(params=list(BACKENDS), ids=lambda backend: f"backend={backend}")
def launch(request):
    """``run_parallel`` bound to one execution backend."""
    backend = request.param

    def run(fn, size, **kwargs):
        kwargs.setdefault("backend", backend)
        return mpi.run_parallel(fn, size, **kwargs)

    run.backend = backend
    return run
