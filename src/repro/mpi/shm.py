"""Shared result and exchange storage for the ranks of a world.

:func:`shared_empty` is the runtime's one shared-memory mechanism: an
ndarray over an anonymous shared mapping that the parent allocates
before the ranks start and every rank reads and writes in place — the
rollout trajectory and Parareal's slice-boundary iterates live in one.
The mapping has no name, so there is nothing to unlink and nothing a
crashed rank can leak: it dies with the last array viewing it.  Ranks
that read each other's parts order those reads with
:class:`repro.mpi.handshake.Handshake`.

*Messages* never come here: ``send`` pickles payloads of any size
through the destination's mailbox (see :mod:`repro.mpi.process_backend`
for what that costs), so data large enough to care about belongs in a
window.
"""

from __future__ import annotations

import math
import mmap
from typing import Any

import numpy as np

__all__ = ["shared_empty", "is_shared"]


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
