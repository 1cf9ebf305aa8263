"""Unit tests for the router's payload-isolation fast path.

``_isolate_payload`` replaced a blanket ``copy.deepcopy`` on the send
path; these tests pin the contract that matters: after a send, no
sender-side mutation may ever reach the receiver, for every payload
shape the fast path special-cases — and for the ones it doesn't.
"""

import pickle

import numpy as np
import pytest

from repro.mpi.router import _isolate_payload
from repro.tensor import Tensor


class TestFastPaths:
    def test_immutables_pass_through_by_identity(self):
        for value in (None, 3, 2.5, 1 + 2j, True, "s", b"raw", frozenset({1}), np.float64(1.5)):
            assert _isolate_payload(value) is value

    def test_ndarray_is_buffer_copied(self):
        original = np.zeros(8)
        isolated = _isolate_payload(original)
        assert isolated is not original
        original[:] = 9.0
        assert np.allclose(isolated, 0.0)

    def test_tensor_copies_buffer_and_keeps_flags(self):
        original = Tensor(np.ones(4), requires_grad=True)
        isolated = _isolate_payload(original)
        assert type(isolated) is Tensor
        assert isolated.requires_grad
        original.data[:] = -1.0
        assert np.allclose(isolated.data, 1.0)

    def test_nested_state_dict_stays_on_fast_path(self):
        weights = np.zeros(4)
        nested = np.ones(2)
        payload = {"w": weights, "meta": [nested, (np.arange(3.0),)]}
        isolated = _isolate_payload(payload)
        weights[:] = 5.0
        nested[:] = 5.0
        assert np.allclose(isolated["w"], 0.0)
        assert np.allclose(isolated["meta"][0], 1.0)
        assert np.allclose(isolated["meta"][1][0], np.arange(3.0))

    def test_deepcopy_fallback_for_custom_objects(self):
        class Box:
            def __init__(self):
                self.items = [1, 2]

        box = Box()
        isolated = _isolate_payload(box)
        box.items.append(3)
        assert isolated.items == [1, 2]

    def test_container_subclasses_keep_their_type(self):
        class Tagged(list):
            pass

        payload = Tagged([np.zeros(2)])
        isolated = _isolate_payload(payload)
        assert type(isolated) is Tagged
        payload[0][:] = 4.0
        assert np.allclose(isolated[0], 0.0)


class TestSenderMutationThroughTransport:
    def test_dict_of_arrays_isolated_after_send(self, launch):
        """End-to-end: mutation between send and receive is invisible."""

        def program(comm):
            if comm.rank == 0:
                payload = {"w": np.zeros(3)}
                comm.send(payload, dest=1, tag=1)
                payload["w"][:] = 7.0
                return None
            return comm.recv(source=0, tag=1)

        received = launch(program, 2)[1]
        assert np.allclose(received["w"], 0.0)

    def test_tensor_payload_isolated_after_send(self, launch):
        def program(comm):
            if comm.rank == 0:
                payload = Tensor(np.zeros(3), requires_grad=True)
                comm.send(payload, dest=1, tag=1)
                payload.data[:] = 7.0
                return None
            received = comm.recv(source=0, tag=1)
            return np.asarray(received.data), received.requires_grad

        data, requires_grad = launch(program, 2)[1]
        assert np.allclose(data, 0.0)
        assert requires_grad

    @pytest.mark.parametrize("nbytes", [2 << 10, 128 << 10, 4 << 20], ids=["2KiB", "128KiB", "4MiB"])
    @pytest.mark.parametrize("kind", ["contiguous", "strided", "float32", "object"])
    def test_arrays_of_any_size_and_layout_round_trip(self, launch, kind, nbytes):
        """One transport at every size: what arrives equals what was
        sent, whatever the sender does to its array afterwards."""
        count = nbytes // 8
        if kind == "contiguous":
            original = np.arange(count, dtype=np.float64)
        elif kind == "strided":
            original = np.arange(4 * count, dtype=np.float64).reshape(2, -1)[:, ::2]
        elif kind == "float32":
            original = np.arange(2 * count, dtype=np.float32)
        else:
            original = np.array([{"i": i} for i in range(count // 64)], dtype=object)
        expected = pickle.loads(pickle.dumps(original))  # a private deep copy

        def program(comm):
            if comm.rank == 0:
                comm.send(original, dest=1, tag=1)
                original[...] = None if kind == "object" else -1
                return None
            return comm.recv(source=0, tag=1)

        received = launch(program, 2)[1]
        assert received.dtype == expected.dtype and received.shape == expected.shape
        assert np.array_equal(received, expected)
