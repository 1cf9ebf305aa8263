"""Point-to-point messaging semantics (both execution backends)."""

import numpy as np
import pytest

from repro.exceptions import CommunicatorError, DeadlockError
from repro.mpi.api import MAX_USER_TAG


class TestSendRecv:
    def test_basic_pair(self, launch):
        def program(comm):
            if comm.rank == 0:
                comm.send({"x": 42}, dest=1, tag=3)
                return None
            return comm.recv(source=0, tag=3)

        results = launch(program, 2)
        assert results[1] == {"x": 42}

    def test_numpy_payload(self, launch):
        def program(comm):
            if comm.rank == 0:
                comm.send(np.arange(5.0), dest=1, tag=1)
                return None
            return comm.recv(source=0, tag=1)

        results = launch(program, 2)
        assert np.allclose(results[1], np.arange(5.0))

    def test_tag_selectivity(self, launch):
        def program(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
                return None
            # Receive tag 2 first even though tag 1 arrived first.
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (first, second)

        assert launch(program, 2)[1] == ("a", "b")

    def test_non_overtaking_same_source_tag(self, launch):
        """MPI guarantees message order per (source, dest, tag)."""

        def program(comm):
            if comm.rank == 0:
                for i in range(20):
                    comm.send(i, dest=1, tag=5)
                return None
            return [comm.recv(source=0, tag=5) for _ in range(20)]

        assert launch(program, 2)[1] == list(range(20))

    def test_message_isolation(self, launch):
        """Sender-side mutation after send is invisible to the receiver."""

        def program(comm):
            if comm.rank == 0:
                payload = np.zeros(4)
                comm.send(payload, dest=1, tag=1)
                payload[:] = 99.0
                return None
            return comm.recv(source=0, tag=1)

        assert np.allclose(launch(program, 2)[1], 0.0)

    def test_pairwise_exchange(self, launch):
        """Both ranks send before they receive: buffered sends make the
        symmetric exchange safe."""

        def program(comm):
            peer = 1 - comm.rank
            comm.send(comm.rank * 10, dest=peer, tag=0)
            return comm.recv(source=peer, tag=0)

        assert launch(program, 2) == [10, 0]

    def test_send_returns_before_matching_recv(self, launch):
        """A send completes with no receive posted: rank 0 finishes all
        its sends before rank 1 has asked for anything."""

        def program(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1, tag=i)
                comm.send("done", dest=1, tag=99)
                return None
            done = comm.recv(source=0, tag=99)
            return done, [comm.recv(source=0, tag=i) for i in range(5)]

        assert launch(program, 2)[1] == ("done", [0, 1, 2, 3, 4])

    def test_queued_messages_collected_in_any_order(self, launch):
        def program(comm):
            if comm.rank == 0:
                for tag in range(6):
                    comm.send(f"m{tag}", dest=1, tag=tag)
                return None
            return [comm.recv(source=0, tag=tag) for tag in reversed(range(6))]

        assert launch(program, 2)[1] == [f"m{tag}" for tag in reversed(range(6))]

    def test_array_dtype_and_shape_survive(self, launch):
        def program(comm):
            if comm.rank == 0:
                comm.send(np.arange(12, dtype=np.float32).reshape(3, 4), dest=1, tag=2)
                return None
            return comm.recv(source=0, tag=2)

        received = launch(program, 2)[1]
        assert received.dtype == np.float32 and received.shape == (3, 4)
        assert np.array_equal(received, np.arange(12, dtype=np.float32).reshape(3, 4))


class TestValidation:
    def test_send_out_of_range_raises(self, launch):
        def program(comm):
            with pytest.raises(CommunicatorError):
                comm.send("x", dest=5)
            return True

        assert all(launch(program, 2))

    def test_reserved_tag_rejected(self, launch):
        def program(comm):
            with pytest.raises(CommunicatorError):
                comm.send("x", dest=0, tag=MAX_USER_TAG)
            return True

        assert all(launch(program, 1))

    def test_recv_source_out_of_range_raises(self, launch):
        def program(comm):
            with pytest.raises(CommunicatorError):
                comm.recv(source=5, tag=0)
            return True

        assert all(launch(program, 2))

    def test_negative_tag_rejected_for_recv(self, launch):
        def program(comm):
            with pytest.raises(CommunicatorError):
                comm.recv(source=0, tag=-1)
            return True

        assert all(launch(program, 1))

    def test_negative_tag_rejected_for_send(self, launch):
        def program(comm):
            with pytest.raises(CommunicatorError):
                comm.send("x", dest=0, tag=-3)
            return True

        assert all(launch(program, 1))


class TestDeadlockWatchdog:
    def test_mutual_recv_detected(self, launch):
        def program(comm):
            comm.recv(source=1 - comm.rank, tag=1)

        with pytest.raises(DeadlockError):
            launch(program, 2, deadlock_timeout=0.2)

    def test_recv_timeout_override(self, launch):
        def program(comm):
            if comm.rank == 0:
                with pytest.raises(DeadlockError):
                    comm.recv(source=1, tag=9, timeout=0.1)
            return True

        assert all(launch(program, 2))
