"""Process-backend-specific behaviour.

The generic communicator contract is covered by the backend-
parameterized suite (see ``conftest.py``); this file pins what is
unique to the process world: start-method handling, hard-death
supervision, result reporting, the shared arrays ranks read and write
in place — and that those anonymous mappings are the only shared memory
the package can create.
"""

import ast
import functools
import os
import pathlib
import pickle
import threading

import numpy as np
import pytest

from repro import mpi
from repro.exceptions import CommunicatorError
from repro.mpi.launcher import BACKENDS
from repro.mpi.process_backend import ProcessCommunicator, _encode_outcome
from repro.mpi.shm import is_shared


def _spawn_program(comm):
    """Module-level so it survives spawn's pickling of the rank program."""
    return comm.allreduce(comm.rank + 1)


def _write_rank(comm, window):
    window[comm.rank] = comm.rank + 1.0


class TestProcessWorld:
    def test_closures_supported_under_default_fork(self):
        captured = {"base": 10}

        def program(comm):
            return captured["base"] + comm.rank

        assert mpi.run_parallel(program, 2, backend="processes") == [10, 11]

    def test_spawn_start_method(self):
        if "spawn" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("spawn not available")
        results = mpi.run_parallel(
            _spawn_program, 2, backend="processes", start_method="spawn"
        )
        assert results == [3, 3]

    def test_unknown_backend_rejected(self):
        with pytest.raises(CommunicatorError, match="unknown backend"):
            mpi.run_parallel(lambda c: None, 1, backend="smoke-signals")

    def test_hard_worker_death_is_detected(self):
        """A rank exiting without reporting (os._exit) must surface as a
        CommunicatorError, not a hang."""

        def program(comm):
            if comm.rank == 0:
                os._exit(3)
            comm.recv(source=0, tag=1, timeout=30.0)

        with pytest.raises(CommunicatorError, match="exit code 3"):
            mpi.run_parallel(program, 2, backend="processes")

    def test_communicator_validates_rank(self):
        with pytest.raises(CommunicatorError):
            ProcessCommunicator(rank=2, size=2, mailboxes=[])


def _identifiers(node):
    """Every name an AST node mentions (dotted import paths split)."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.ImportFrom):
        yield from (node.module or "").split(".")
    elif isinstance(node, ast.alias):
        yield from node.name.split(".")


def test_no_module_in_the_package_can_create_a_dev_shm_entry():
    """Named segments (``multiprocessing.shared_memory``) and the
    ``resource_tracker`` that polices them are the only route to a
    ``/dev/shm`` entry that outlives a crashed rank; no source file may
    so much as name either.  (Fork-context semaphores are unlinked at
    birth; the residue checks after each failure cell watch those.)"""
    import repro

    forbidden = {"SharedMemory", "shared_memory", "resource_tracker"}
    for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            named = forbidden.intersection(_identifiers(node))
            assert not named, f"{path}:{node.lineno} names {sorted(named)}"


class TestSharedEmpty:
    def test_ranks_write_through_on_both_backends(self):
        for backend in BACKENDS:
            window = mpi.shared_empty((2, 3), np.float32)
            assert window.dtype == np.float32 and window.flags.writeable
            window[...] = 0.0
            mpi.run_parallel(functools.partial(_write_rank, window=window), 2, backend=backend)
            assert np.array_equal(window, [[1.0] * 3, [2.0] * 3]), backend

    def test_views_are_recognised_and_ordinary_arrays_are_not(self):
        window = mpi.shared_empty((4, 4), np.float64)
        assert is_shared(window) and is_shared(window[1:, ::2])
        assert not is_shared(window.copy())
        assert not is_shared(np.zeros(3)[1:])
        assert mpi.shared_empty((0, 5), np.float64).shape == (0, 5)

    def test_spawn_is_refused_in_one_line(self):
        """A spawned rank would get a pickled private copy and its
        writes would vanish: refused before any process starts."""
        window = mpi.shared_empty((2,), np.float64)
        program = functools.partial(_write_rank, window=window[:])
        with pytest.raises(CommunicatorError, match="fork inheritance") as caught:
            mpi.run_parallel(program, 2, backend="processes", start_method="spawn")
        assert "\n" not in str(caught.value)


class TestOutcomeEncoding:
    def test_unpicklable_bundle_is_dropped_not_the_result(self):
        report = _encode_outcome(1, "ok", {"loss": 0.5}, bundle=threading.Lock())
        assert pickle.loads(report) == (1, "ok", {"loss": 0.5}, None)

    def test_picklable_bundle_rides_along(self):
        assert pickle.loads(_encode_outcome(0, "ok", 7, bundle={"spans": 3})) == (
            0, "ok", 7, {"spans": 3},
        )  # fmt: skip

    def test_unpicklable_result_becomes_a_typed_error_and_keeps_the_bundle(self):
        rank, kind, value, bundle = pickle.loads(
            _encode_outcome(2, "ok", threading.Lock(), bundle={"spans": 3})
        )
        assert (rank, kind, bundle) == (2, "err", {"spans": 3})
        assert isinstance(value, CommunicatorError)
        assert "rank 2 produced an unpicklable result (lock)" in str(value)

    def test_unpicklable_result_reaches_the_caller(self):
        with pytest.raises(CommunicatorError, match="unpicklable result"):
            mpi.run_parallel(lambda comm: threading.Lock(), 2, backend="processes")
