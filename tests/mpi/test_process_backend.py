"""Process-backend-specific behaviour.

The generic communicator contract is covered by the backend-
parameterized suite (see ``conftest.py``); this file pins what is
unique to the process world: the shared-memory transport's codec and
lifetime protocol, start-method handling, hard-death supervision,
segment cleanup on every exit path, result reporting, and the shared
result arrays ranks write in place.
"""

import functools
import os
import pickle
import threading

import numpy as np
import pytest

from repro import mpi
from repro.exceptions import CommunicatorError
from repro.mpi.process_backend import _encode_outcome
from repro.mpi.shm import (
    SHM_THRESHOLD_BYTES,
    ShmArrayHeader,
    decode_payload,
    discard_header,
    encode_payload,
    is_shared,
)


#: float64 element counts just on either side of the transport switch.
_SHM_COUNT = SHM_THRESHOLD_BYTES // 8
_PICKLE_COUNT = _SHM_COUNT - 1


def _shm_segments():
    """Names of live POSIX shm segments created by this interpreter
    family (CPython prefixes anonymous segments with ``psm_``)."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


class TestShmCodec:
    def test_small_arrays_take_the_pickle_path(self):
        for array in (np.zeros(4), np.zeros(_PICKLE_COUNT)):
            assert encode_payload(array) is array

    def test_non_array_payloads_pass_through(self):
        for payload in ({"k": 1}, [1, 2], "text", None):
            assert encode_payload(payload) is payload

    def test_object_dtype_never_uses_shm(self):
        array = np.array([{"x": 1}] * 64, dtype=object)
        assert encode_payload(array, threshold=1) is array

    def test_large_array_roundtrip_releases_segment(self):
        before = _shm_segments()
        array = np.arange(_SHM_COUNT, dtype=np.float64)  # exactly the threshold
        header = encode_payload(array)
        assert isinstance(header, ShmArrayHeader)
        assert header.nbytes == array.nbytes
        decoded = decode_payload(header)
        assert decoded.dtype == array.dtype
        assert np.array_equal(decoded, array)
        # Receiver-side decode performs the one-and-only unlink.
        assert _shm_segments() == before

    def test_threshold_is_configurable(self):
        array = np.arange(8, dtype=np.float64)
        header = encode_payload(array, threshold=1)
        assert isinstance(header, ShmArrayHeader)
        assert np.array_equal(decode_payload(header), array)

    def test_noncontiguous_arrays_roundtrip(self):
        base = np.arange(10_000, dtype=np.float64).reshape(100, 100)
        strided = base[::2, ::3]
        header = encode_payload(strided, threshold=1)
        assert isinstance(header, ShmArrayHeader)
        assert np.array_equal(decode_payload(header), strided)

    def test_decode_passes_plain_payloads_through(self):
        assert decode_payload("plain") == "plain"

    def test_discard_header_is_idempotent(self):
        before = _shm_segments()
        header = encode_payload(np.zeros(1 << 12), threshold=1)
        assert isinstance(header, ShmArrayHeader)
        discard_header(header)
        assert _shm_segments() == before
        discard_header(header)  # second release: already gone, no error
        discard_header("not a header")  # non-headers are ignored


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

    def test_no_segment_leak_after_large_exchange(self):
        before = _shm_segments()

        def program(comm):
            peer = 1 - comm.rank
            payload = np.full(4 * _SHM_COUNT, float(comm.rank))  # → shm
            comm.send(payload, dest=peer, tag=1)
            received = comm.recv(source=peer, tag=1)
            return float(received[0])

        assert mpi.run_parallel(program, 2, backend="processes") == [1.0, 0.0]
        assert _shm_segments() == before

    def test_undelivered_segment_released_on_rank_failure(self):
        """A message parked in shm whose receiver dies before recv must
        still be unlinked (worker finally-drain or launcher teardown)."""
        before = _shm_segments()

        def program(comm):
            if comm.rank == 0:
                comm.send(np.zeros(4 * _SHM_COUNT), dest=1, tag=1)
                comm.barrier()
                return None
            comm.barrier()  # message is in flight or buffered by now
            raise RuntimeError("receiver died before recv")

        with pytest.raises(RuntimeError, match="receiver died"):
            mpi.run_parallel(program, 2, backend="processes")
        assert _shm_segments() == before

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
            mpi.ProcessCommunicator(rank=2, size=2, mailboxes=[])


class TestSharedEmpty:
    def test_ranks_write_through_on_both_backends(self):
        for backend in mpi.BACKENDS:
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
