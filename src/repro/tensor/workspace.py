"""Shape/dtype-keyed reusable buffer arenas for the kernel hot path.

Every ``conv2d`` call used to allocate (and the OS used to page-zero)
tens of megabytes of scratch — the im2col patch matrix alone is ~52 MiB
at the paper's 256x256/4-channel/5x5 configuration — only to free it
microseconds later.  A :class:`Workspace` keeps those buffers alive
between calls: ``request(slot, shape, dtype)`` returns the *same*
ndarray every time the same key recurs, so steady-state kernels run
against warm, already-faulted memory.

Ownership contract
------------------
A buffer handed out for ``(slot, shape, dtype)`` is valid until the
next ``request`` of that key.  Callers therefore must either (a) finish
with the buffer before anyone can re-request the key — the scratch
pattern used by the strip kernels of :mod:`~repro.tensor.blocked` — or
(b) own the arena outright and manage slot lifetimes themselves, which
is what :class:`~repro.core.inference.InferencePlan` does.  Results
that escape to user code are never workspace-backed unless the caller
explicitly owns the arena.

Buffers are zero-filled exactly once, at creation.  The padded-input
slots encode the padding split in the slot name and only ever write the
interior, so their borders stay zero for the buffer's whole lifetime.
A :meth:`~Workspace.reserve` slot (a strip buffer, the training
backward's gradient source) is one buffer all shapes share: its users
write what they read, zero borders included.

Each arena tallies its own requests in :class:`WorkspaceStats`, always.
While the :mod:`repro.obs.metrics` registry collects, every hand-out
also adds its bytes to the ``workspace.bytes_allocated`` (fresh) or
``workspace.bytes_reused`` (warm) counter, tagged with the calling
thread's rank, so those merge across ranks and processes with the rest
of the registry.

Thread and fork semantics
-------------------------
The default arena returned by :func:`get_workspace` is **per-thread**
(the thread-backed MPI ranks each train in their own thread, and a
shared arena would hand two ranks the same scratch buffer).  The pool
helpers a rank's share of the cores adds draw from the calling thread's
arena's :meth:`~Workspace.helper` arenas, one per helper slot, so a
helper's scratch is warm whichever pool thread runs it; the arena's
``nbytes`` and ``num_buffers`` include them.  Under the
process execution backend each forked rank inherits a copy-on-write
image of the parent's arenas; an ``os.register_at_fork`` hook drops
them in the child so every rank process starts cold and its reuse
statistics describe only its own work.
"""

from __future__ import annotations

import contextlib
import os
import threading
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from ..obs import metrics as obs_metrics

#: Bytes of the buffers arenas hand out, fresh and warm: recorded
#: (rank-tagged) while the metrics registry collects.
_BYTES_ALLOCATED = obs_metrics.counter("workspace.bytes_allocated")
_BYTES_REUSED = obs_metrics.counter("workspace.bytes_reused")

__all__ = [
    "Workspace",
    "WorkspaceStats",
    "get_workspace",
    "scratch",
    "workspace_disabled",
]


@dataclass
class WorkspaceStats:
    """Allocation/reuse accounting for one arena."""

    requests: int = 0
    buffers_created: int = 0
    bytes_allocated: int = 0
    bytes_reused: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from a warm buffer."""
        if self.requests == 0:
            return 0.0
        return 1.0 - self.buffers_created / self.requests


class Workspace:
    """An arena of reusable ndarray buffers keyed by (slot, shape, dtype).

    Not thread-safe by design: an arena belongs to one thread (or to
    one owning object such as an :class:`~repro.core.inference.
    InferencePlan`).  Use :func:`get_workspace` for the calling
    thread's default arena.

    The REP007 lint rule confines construction to ``src/repro/tensor``
    and ``src/repro/core/inference.py``; other code requests buffers
    from an arena it is handed instead of building private ones.
    """

    def __init__(self, name: str = "workspace") -> None:
        self.name = name
        self._buffers: dict[tuple[str, tuple[int, ...], np.dtype], np.ndarray] = {}
        self._helpers: list[Workspace] = []
        self.stats = WorkspaceStats()

    def request(
        self,
        slot: str,
        shape: tuple[int, ...],
        dtype: Any,
    ) -> np.ndarray:
        """Return the reusable buffer for ``(slot, shape, dtype)``.

        Fresh buffers are zero-filled.  The returned array is valid
        until the next request of the same key — see the module
        docstring's ownership contract.
        """
        key = (slot, tuple(int(s) for s in shape), np.dtype(dtype))
        self.stats.requests += 1
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = np.zeros(key[1], dtype=key[2])
            self._buffers[key] = buffer
            self.stats.buffers_created += 1
            self.stats.bytes_allocated += buffer.nbytes
            _BYTES_ALLOCATED.inc(buffer.nbytes)
        else:
            self.stats.bytes_reused += buffer.nbytes
            _BYTES_REUSED.inc(buffer.nbytes)
        return buffer

    def reserve(self, slot: str, shape: tuple[int, ...], dtype: Any) -> np.ndarray:
        """A ``shape`` view of the one 1-D buffer ``slot`` holds for
        ``dtype``, replaced when too small, so it settles at the largest
        size asked for; valid until the slot's next ``reserve``."""
        dtype, size = np.dtype(dtype), int(np.prod(shape))
        for key in [k for k in self._buffers if k[0] == slot and k[2] == dtype]:
            if key[1][0] >= size:
                return self.request(slot, key[1], dtype)[:size].reshape(shape)
            del self._buffers[key]
        return self.request(slot, (size,), dtype).reshape(shape)

    def helper(self, k: int) -> Workspace:
        """The arena of helper slot ``k`` of this arena's owner's image
        split (:func:`~repro.tensor.blocked.for_each_image`), created on
        first use.  One owner runs one split at a time, so slot ``k`` is
        used by one thread at a time, whichever pool thread that is."""
        while len(self._helpers) <= k:
            self._helpers.append(Workspace(f"{self.name}.helper{len(self._helpers)}"))
        return self._helpers[k]

    @property
    def num_buffers(self) -> int:
        """Buffers held by the arena and its helper arenas."""
        return len(self._buffers) + sum(h.num_buffers for h in self._helpers)

    @property
    def nbytes(self) -> int:
        """Total bytes held by the arena and its helper arenas."""
        own = sum(b.nbytes for b in self._buffers.values())
        return own + sum(h.nbytes for h in self._helpers)

    def clear(self) -> None:
        """Drop every buffer, the helper arenas' too (statistics are kept)."""
        self._buffers.clear()
        for helper in self._helpers:
            helper.clear()

    def describe(self) -> str:
        """One-line summary used by reports and the ``repro perf`` CLI;
        buffers and bytes include the helper arenas, the requests and
        hit rate are this arena's own."""
        s = self.stats
        return (
            f"{self.name}: {self.num_buffers} buffers, "
            f"{self.nbytes / 1024 / 1024:.1f} MiB held, "
            f"{s.requests} requests, hit rate {s.hit_rate:.0%}"
        )


_tls = threading.local()


def get_workspace() -> Workspace | None:
    """The calling thread's default arena (``None`` while disabled).

    Kernels consult this on their no-grad fast path; each thread —
    including every thread-backed MPI rank — lazily gets its own arena
    so scratch buffers are never shared across ranks.
    """
    if getattr(_tls, "disabled", 0):
        return None
    workspace = getattr(_tls, "workspace", None)
    if workspace is None:
        workspace = Workspace(name=f"thread-{threading.get_ident()}")
        _tls.workspace = workspace
    return workspace


def scratch(
    workspace: Workspace | None,
    slot: str,
    shape: tuple[int, ...],
    dtype: Any,
    shared: bool = False,
) -> np.ndarray:
    """``workspace.request(slot, shape, dtype)`` (``reserve`` when
    ``shared``), or an uninitialized fresh array when there is no arena
    (``workspace_disabled``) — the correctness-only fallback of kernels
    that take an optional arena."""
    if workspace is None:
        return np.empty(shape, dtype=dtype)
    return (workspace.reserve if shared else workspace.request)(slot, shape, dtype)


@contextlib.contextmanager
def workspace_disabled() -> Iterator[None]:
    """Disable the calling thread's default arena inside the block.

    Used by the equivalence tests and benchmarks to pin the naive
    allocate-per-call path as the baseline.
    """
    _tls.disabled = getattr(_tls, "disabled", 0) + 1
    try:
        yield
    finally:
        _tls.disabled -= 1


def _drop_after_fork() -> None:
    # A forked rank process inherits the forking thread's arena as a
    # copy-on-write image; drop it so the child starts cold and its
    # statistics (and the workspace byte counters) are its own.
    _tls.workspace = None


if hasattr(os, "register_at_fork"):  # not on every platform
    os.register_at_fork(after_in_child=_drop_after_fork)
