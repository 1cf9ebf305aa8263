"""Deadlock-watchdog diagnostics: the timeout error names the blockage."""

import pytest

from repro.exceptions import DeadlockError
from repro.mpi.router import MessageRouter


def test_timeout_names_triple_and_inventory():
    router = MessageRouter(2)
    router.post(source=0, dest=1, tag=3, payload=b"x")
    with pytest.raises(DeadlockError) as err:
        router.collect(dest=0, source=1, tag=7, timeout=0.05)
    message = str(err.value)
    assert "(source=1, dest=0, tag=7)" in message
    assert "(0, 1, 3)" in message  # the queued-but-uncollected message
    assert "likely deadlock" in message


def test_timeout_reports_empty_world():
    router = MessageRouter(2)
    with pytest.raises(DeadlockError, match="no messages queued"):
        router.collect(dest=0, source=1, tag=7, timeout=0.05)



def test_inventory_lists_every_queued_message():
    router = MessageRouter(3)
    router.post(source=0, dest=1, tag=3, payload=1)
    router.post(source=2, dest=0, tag=8, payload=2)
    with pytest.raises(DeadlockError) as err:
        router.collect(dest=2, source=0, tag=1, timeout=0.05)
    assert "[(2, 0, 8), (0, 1, 3)]" in str(err.value)


def test_collected_messages_leave_the_inventory():
    router = MessageRouter(2)
    router.post(0, 1, 5, "x")
    router.post(0, 1, 5, "y")
    assert router.collect(1, 0, 5, timeout=1.0) == "x"
    assert router.collect(1, 0, 5, timeout=1.0) == "y"
    with pytest.raises(DeadlockError, match="no messages queued"):
        router.collect(dest=1, source=0, tag=5, timeout=0.05)
