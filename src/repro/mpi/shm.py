"""Pickle-free shared-memory transport for NumPy payloads.

The process backend moves every message through a ``multiprocessing``
queue, which pickles its items.  For the payloads that dominate the
runtime's message traffic — weight vectors and large halo slabs, i.e.
plain NumPy arrays — pickling is pure overhead: the bytes are copied into the
pickle stream, through a pipe, and out again.  This module provides the
fast path: the sender copies the array into a POSIX shared-memory
segment and ships only a tiny :class:`ShmArrayHeader` (name, shape,
dtype) through the queue; the receiver attaches, copies the bytes out
(``np.copy``, so the segment can be released immediately), and unlinks
the segment.  Anything that is not a large contiguous-able ndarray
falls back to ordinary pickling.

Lifetime protocol (exactly one unlink per segment):

- sender: create + write + ``close()`` (keeps the segment alive — a
  POSIX shm segment persists until unlinked);
- receiver: attach + copy + ``close()`` + ``unlink()``;
- launcher teardown: any header still sitting in a mailbox after the
  world ends is drained and unlinked by :func:`discard_header`.

CPython's ``resource_tracker`` registers a segment in *every* process
that opens it and complains (or worse, unlinks early) when that process
exits before the segment is gone (bpo-39959); worse, sender and
receiver racing register/unregister messages for the same name crashes
the shared tracker process with a ``KeyError``.  Since this module owns
the lifetime explicitly, segments are opened with tracker registration
suppressed (the 3.13 ``track=False`` behaviour, backported by briefly
stubbing the register hook).  The cost is that a rank crashing between
create and unlink leaks the segment until reboot — the launcher's
teardown drain covers every non-crash path.

Separately from the message transport, :func:`shared_empty` hands out
*result* storage: an ndarray over an anonymous shared mapping that the
parent allocates before the ranks start and every rank writes its
window of.  It has no name, so there is nothing to unlink and nothing
that can leak — the mapping dies with the last array viewing it.
Ranks that read each other's windows order those reads with
:class:`repro.mpi.handshake.Handshake`.
"""

from __future__ import annotations

import math
import mmap
import sys
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any

import numpy as np

__all__ = [
    "SHM_THRESHOLD_BYTES",
    "ShmArrayHeader",
    "encode_payload",
    "decode_payload",
    "discard_header",
    "shared_empty",
    "is_shared",
]

#: Below this many bytes the queue's pickle path is cheaper than a
#: shared-memory round trip (create + ftruncate + mmap + attach + unlink
#: are fixed syscall costs).  One-way ping-pong latency on the 2-core
#: reference VM, same program with the threshold forced either way,
#: median of 7 x 300 round trips:
#:
#:     payload      pickle      shm
#:       2 KiB      188 us   306 us
#:    16 640 B      200 us   312 us   (a HaloExchanger strip at 256²;
#:                                      rollouts read theirs in place)
#:      64 KiB      302 us   370 us
#:      96 KiB      312 us   424 us
#:     128 KiB      402 us   459 us
#:     160 KiB      692 us   470 us
#:     192 KiB      917 us   509 us
#:     256 KiB     1041 us   600 us
#:       1 MiB     4404 us  1256 us
#:
#: The pickle path steps up where glibc starts serving its buffers with
#: mmap (``M_MMAP_THRESHOLD``, 128 KiB), which is what puts the
#: crossover there.
SHM_THRESHOLD_BYTES = 1 << 17  # 128 KiB


@dataclass(frozen=True)
class ShmArrayHeader:
    """Wire header describing an array parked in a shared-memory segment."""

    name: str
    shape: tuple[int, ...]
    dtype: str  # ``np.dtype.str`` — carries byte order

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count * np.dtype(self.dtype).itemsize


#: Python 3.13+ supports ``SharedMemory(..., track=False)`` natively and
#: skips the tracker in ``unlink()`` for untracked segments.
_HAS_TRACK_PARAM = sys.version_info >= (3, 13)


def _open_untracked(**kwargs: Any) -> shared_memory.SharedMemory:
    """Open a segment without resource-tracker registration.

    Python 3.13 exposes this as ``SharedMemory(..., track=False)``; on
    earlier versions the registration hook is stubbed out for the
    duration of the constructor.  Single-threaded per process by
    construction: each rank process drives exactly one communicator.
    """
    if _HAS_TRACK_PARAM:
        return shared_memory.SharedMemory(track=False, **kwargs)
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kw: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(**kwargs)
    finally:
        resource_tracker.register = original


def _unlink_untracked(segment: shared_memory.SharedMemory) -> None:
    """Unlink without the tracker UNREGISTER message (the segment was
    never registered, and a spurious unregister crashes the shared
    tracker process with a KeyError)."""
    if _HAS_TRACK_PARAM:
        segment.unlink()
        return
    original = resource_tracker.unregister
    resource_tracker.unregister = lambda *args, **kw: None  # type: ignore[assignment]
    try:
        segment.unlink()
    finally:
        resource_tracker.unregister = original


def encode_payload(payload: Any, threshold: int = SHM_THRESHOLD_BYTES) -> Any:
    """Park large ndarray payloads in shared memory; pass others through.

    Returns either the original payload (pickle path) or a
    :class:`ShmArrayHeader` the receiver resolves with
    :func:`decode_payload`.
    """
    if (
        not isinstance(payload, np.ndarray)
        or payload.dtype.hasobject
        or payload.nbytes < threshold
    ):
        return payload
    array = np.ascontiguousarray(payload)
    segment = _open_untracked(create=True, size=array.nbytes)
    try:
        view: np.ndarray = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        return ShmArrayHeader(segment.name, array.shape, array.dtype.str)
    except BaseException:
        # The header never reaches a receiver, so nobody else will
        # unlink the segment — release it here or it outlives the
        # process (POSIX shm persists until reboot).
        _unlink_untracked(segment)
        raise
    finally:
        segment.close()


def decode_payload(payload: Any) -> Any:
    """Resolve a wire payload: attach + copy out + unlink for headers."""
    if not isinstance(payload, ShmArrayHeader):
        return payload
    segment = _open_untracked(name=payload.name)
    try:
        view: np.ndarray = np.ndarray(
            payload.shape, dtype=np.dtype(payload.dtype), buffer=segment.buf
        )
        return np.copy(view)
    finally:
        segment.close()
        _unlink_untracked(segment)


def discard_header(payload: Any) -> None:
    """Release the segment behind an undelivered message (teardown path)."""
    if not isinstance(payload, ShmArrayHeader):
        return
    try:
        segment = _open_untracked(name=payload.name)
    except FileNotFoundError:
        return  # already released
    segment.close()
    _unlink_untracked(segment)


class _SharedMapping(mmap.mmap):
    """Marks the mappings :func:`shared_empty` creates, so
    :func:`is_shared` does not mistake a file-backed ``np.memmap`` for
    one."""


def shared_empty(shape: tuple[int, ...], dtype: Any) -> np.ndarray:
    """Uninitialised ndarray that rank threads *and* forked rank
    processes write through to the caller.

    The storage is an anonymous shared mapping (``mmap.mmap(-1, n)``):
    threads share it trivially and ``fork`` children inherit it, so a
    rank program that closes over the array fills it in place on either
    backend and returns nothing.  The array owns the mapping; it is
    unmapped when the last view is collected.  A ``spawn`` child cannot
    inherit it — the launcher rejects that combination (pickling would
    hand each rank a private copy).
    """
    dtype = np.dtype(dtype)
    mapping = _SharedMapping(-1, max(1, math.prod(shape) * dtype.itemsize))
    return np.ndarray(shape, dtype=dtype, buffer=mapping)


def is_shared(obj: Any) -> bool:
    """Whether ``obj`` is an array viewing :func:`shared_empty` storage."""
    base = obj
    while isinstance(base, np.ndarray):
        base = base.base
    return isinstance(base, _SharedMapping)
