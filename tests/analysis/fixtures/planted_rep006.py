"""Fixture with planted REP006 violations (never imported, only linted)."""

import mmap
import multiprocessing
from multiprocessing.shared_memory import SharedMemory


def rogue_side_channel(payload):
    # Process transport hand-rolled outside repro.mpi: invisible to the
    # deadlock watchdog and the REP003 message audit.
    queue = multiprocessing.Queue()
    segment = SharedMemory(create=True, size=payload.nbytes)
    queue.put(segment.name)
    return queue


def rogue_result_window(nbytes):
    # A private shared mapping: ranks would write results past the
    # runtime's one sanctioned allocator (repro.mpi.shared_empty).
    return mmap.mmap(-1, nbytes)
