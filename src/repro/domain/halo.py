"""Point-to-point halo exchange (Sec. III "Inference" of the paper).

Each rank owns a non-overlapping block; to rebuild the overlapped input
the next prediction step needs, boundary strips are exchanged with the
axis neighbours using fully point-to-point messages — no central
instance, exactly as the paper prescribes.  The exchange proceeds axis
by axis (y then x); the second phase sends strips of the already
extended array, which transports corner data implicitly, the standard
two-phase scheme from structured-grid codes.

This is the distributed-memory form: every strip is a message.  Ranks
that share the field they exchange over (``ParallelPredictor.rollout``
and its shared trajectory) read the same halo one-sidedly with
``BlockDecomposition.extract(..., out=)``; the property tests pin the
two to identical bytes.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DecompositionError
from ..mpi.api import Communicator
from ..obs import metrics as obs_metrics
from ..obs import trace
from .decomposition import BlockDecomposition

#: Tag block reserved for halo traffic; offsets encode (axis, direction).
_HALO_TAG_BASE = 7000

#: Completed halo exchanges per rank (no-op while metrics are off; the
#: byte volume is already counted by the mpi.bytes_* counters).
_HALO_EXCHANGES = obs_metrics.counter("halo.exchanges")


def _halo_tag(phase: int, direction: int) -> int:
    return _HALO_TAG_BASE + phase * 4 + (0 if direction < 0 else 1)


class HaloExchanger:
    """Reusable halo-exchange plan for one rank of a decomposition.

    Parameters
    ----------
    comm:
        The rank's communicator (world or Cartesian — only
        point-to-point messaging is used).
    decomposition:
        The global block decomposition (must be identical on all ranks).
    halo:
        Halo width in grid lines.
    fill:
        Treatment of halos at physical domain boundaries: ``"zero"``
        (matches zero padding in the network) or ``"edge"``
        (replicates the wall line).
    """

    def __init__(
        self,
        comm: Communicator,
        decomposition: BlockDecomposition,
        halo: int,
        fill: str = "zero",
    ) -> None:
        if halo < 1:
            raise DecompositionError(f"halo width must be >= 1, got {halo}")
        if fill not in ("zero", "edge"):
            raise DecompositionError(f"unknown fill mode {fill!r}")
        if comm.size != decomposition.num_subdomains:
            raise DecompositionError(
                f"communicator size {comm.size} != decomposition size "
                f"{decomposition.num_subdomains}"
            )
        sub = decomposition.subdomain(comm.rank)
        h, w = sub.shape
        if halo > h or halo > w:
            raise DecompositionError(
                f"halo {halo} exceeds local block {sub.shape}; "
                "use fewer ranks or a finer grid"
            )
        self.comm = comm
        self.decomposition = decomposition
        self.halo = halo
        self.fill = fill
        self.subdomain = sub
        # Axis neighbours (None at physical boundaries; along a
        # periodic axis the decomposition wraps, possibly onto this
        # rank itself when the axis has a single rank).
        self.neighbours = {
            (axis, direction): decomposition.neighbour(comm.rank, axis, direction)
            for axis in (0, 1)
            for direction in (-1, +1)
        }
        #: number of messages this rank sends (== receives) per exchange
        #: (self-wraps are local copies, not messages)
        self.messages_per_exchange = sum(
            1
            for peer in self.neighbours.values()
            if peer is not None and peer != comm.rank
        )

    # ------------------------------------------------------------------
    def _exchange_axis(self, body: np.ndarray, axis: int, phase: int) -> None:
        """Fill the two ``halo``-wide slabs at the ends of ``body`` along
        spatial axis ``axis``; the lines between them are already valid."""
        o = self.halo
        ax = body.ndim - 2 + axis
        n = body.shape[ax]

        def lines(start: int, stop: int) -> np.ndarray:
            index = [slice(None)] * body.ndim
            index[ax] = slice(start, stop)
            return body[tuple(index)]

        # Per side: the halo slab to fill, the boundary strip the peer
        # needs, the wall line edge replication repeats.
        sides = {
            -1: (lines(0, o), lines(o, 2 * o), lines(o, o + 1)),
            +1: (lines(n - o, n), lines(n - 2 * o, n - o), lines(n - o - 1, n - o)),
        }
        # Post all sends first (buffered), then receive: deadlock-free.
        # A periodic axis with a single rank wraps onto itself — that is
        # a local copy of the opposite strip, not a message.  Strips are
        # sent as snapshots: ``body`` is rewritten by the next exchange,
        # possibly before a peer in a non-isolating world has read them.
        me = self.comm.rank
        for direction, (_, strip, _) in sides.items():
            peer = self.neighbours[(axis, direction)]
            if peer is not None and peer != me:
                self.comm.send(
                    np.ascontiguousarray(strip), dest=peer, tag=_halo_tag(phase, direction)
                )
        for direction, (slab, _, wall) in sides.items():
            peer = self.neighbours[(axis, direction)]
            if peer == me:
                slab[...] = sides[-direction][1]
            elif peer is not None:
                # The neighbour on our low side sent with tag(+1) (its
                # high-side strip), and vice versa.
                slab[...] = self.comm.recv(source=peer, tag=_halo_tag(phase, -direction))
            elif self.fill == "zero":
                slab[...] = 0
            else:
                slab[...] = wall  # edge replication: repeat the wall line

    def exchange(self, local: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Return the halo-extended field.

        ``local`` has shape ``(..., h, w)`` matching this rank's block;
        the result has shape ``(..., h + 2*halo, w + 2*halo)``.  It is
        assembled in place in ``out`` when given (every element is
        overwritten, so a loop can pass the same buffer each step), else
        in a new array: the interior is copied once and received strips
        land directly in the halo.
        """
        if local.shape[-2:] != self.subdomain.shape:
            raise DecompositionError(
                f"local field shape {local.shape[-2:]} does not match "
                f"subdomain {self.subdomain.shape}"
            )
        o = self.halo
        h, w = self.subdomain.shape
        shape = local.shape[:-2] + (h + 2 * o, w + 2 * o)
        if out is None:
            out = np.empty(shape, dtype=local.dtype)
        elif out.shape != shape or out.dtype != local.dtype:
            raise DecompositionError(
                f"out is {out.dtype}{out.shape}, the extended field is "
                f"{local.dtype}{shape}"
            )
        # cat "comm.compound": comm seconds live on the inner send/recv
        # spans; this span only structures the timeline.
        with trace.span("halo.exchange", cat="comm.compound", halo=o):
            out[..., o : o + h, o : o + w] = local
            # y first on the block's own columns, then x on the
            # y-extended lines, which carries the corners along.
            self._exchange_axis(out[..., o : o + w], axis=0, phase=0)
            self._exchange_axis(out, axis=1, phase=1)
        _HALO_EXCHANGES.inc()
        return out
