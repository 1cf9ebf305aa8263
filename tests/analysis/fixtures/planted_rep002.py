"""Fixture with a planted REP002 violation (never imported, only linted)."""

import threading


def shared_endpoint(comm, payload):
    # The rank's communicator handed to a second thread: endpoints are
    # single-thread objects, so the helper races the owning rank.
    def pump():
        comm.send(payload, dest=1, tag=3)

    helper = threading.Thread(target=pump)
    helper.start()
    return helper
