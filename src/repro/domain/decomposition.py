"""2-D block decomposition of a grid into per-rank subdomains.

The decomposition is the paper's Sec. III step 1: each training data
set is split into ``Py × Px`` non-overlapping spatial blocks, one per
MPI rank.  Ranks are numbered row-major over the process grid, as
``MPI_Cart_create`` numbers dims ``(Py, Px)``; ``coords_of``,
``rank_of`` and ``neighbour`` are the topology the halo exchange uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import DecompositionError


def dims_create(size: int) -> tuple[int, int]:
    """The most balanced process grid ``(Py, Px)`` of ``size`` ranks.

    ``MPI_Dims_create`` in 2-D: ``Px`` is the largest divisor of
    ``size`` not above its square root, so ``Py >= Px`` and ``Py - Px``
    is as small as any factorization allows.
    """
    if size <= 0:
        raise DecompositionError(f"size must be positive, got {size}")
    px = max(d for d in range(1, math.isqrt(size) + 1) if size % d == 0)
    return size // px, px


def split_extent(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``n`` indices into ``parts`` contiguous balanced ranges.

    The first ``n % parts`` ranges get one extra index, so sizes differ
    by at most one (standard block distribution).
    """
    if parts <= 0:
        raise DecompositionError(f"parts must be positive, got {parts}")
    if n < parts:
        raise DecompositionError(f"cannot split {n} indices into {parts} parts")
    base, extra = divmod(n, parts)
    ranges = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


@dataclass(frozen=True)
class Subdomain:
    """One rank's block: interior index ranges into the global field."""

    rank: int
    coords: tuple[int, int]  # (iy, ix) in the process grid
    y_range: tuple[int, int]  # [start, stop) rows
    x_range: tuple[int, int]  # [start, stop) columns

    @property
    def y_slice(self) -> slice:
        return slice(*self.y_range)

    @property
    def x_slice(self) -> slice:
        return slice(*self.x_range)

    @property
    def shape(self) -> tuple[int, int]:
        """Local ``(height, width)``."""
        return (
            self.y_range[1] - self.y_range[0],
            self.x_range[1] - self.x_range[0],
        )

    @property
    def num_points(self) -> int:
        h, w = self.shape
        return h * w


class BlockDecomposition:
    """Balanced ``Py × Px`` block decomposition of an ``(H, W)`` grid.

    Parameters
    ----------
    field_shape:
        Global grid shape ``(H, W)``.
    pgrid:
        Process grid ``(Py, Px)``; use :meth:`from_num_ranks` to let the
        library pick a balanced factorization (``MPI_Dims_create``
        style).
    periodic:
        Per-axis wrap flags ``(y, x)``.  Along a periodic axis the
        process grid closes into a ring: :meth:`neighbour` wraps instead
        of returning ``None``, halo :meth:`extract` pulls data from the
        opposite side of the domain, and no subdomain reports a
        physical wall on that axis (see :meth:`physical_sides`).
    """

    def __init__(
        self,
        field_shape: tuple[int, int],
        pgrid: tuple[int, int],
        periodic: tuple[bool, bool] = (False, False),
    ) -> None:
        height, width = field_shape
        py, px = pgrid
        if py <= 0 or px <= 0:
            raise DecompositionError(f"process grid must be positive, got {pgrid}")
        if len(periodic) != 2:
            raise DecompositionError(f"periodic must be (y, x) flags, got {periodic}")
        self.field_shape = (int(height), int(width))
        self.pgrid = (int(py), int(px))
        self.periodic = (bool(periodic[0]), bool(periodic[1]))
        self._y_ranges = split_extent(height, py)
        self._x_ranges = split_extent(width, px)

    @classmethod
    def from_num_ranks(
        cls,
        field_shape: tuple[int, int],
        num_ranks: int,
        periodic: tuple[bool, bool] = (False, False),
    ) -> "BlockDecomposition":
        """Decompose for ``num_ranks`` using a balanced 2-D factorization."""
        return cls(field_shape, dims_create(num_ranks), periodic=periodic)

    # ------------------------------------------------------------------
    @property
    def num_subdomains(self) -> int:
        return self.pgrid[0] * self.pgrid[1]

    def coords_of(self, rank: int) -> tuple[int, int]:
        """Process-grid coordinates ``(iy, ix)`` of ``rank`` (row-major)."""
        py, px = self.pgrid
        if not 0 <= rank < py * px:
            raise DecompositionError(f"rank {rank} out of range for {py}x{px} grid")
        return divmod(rank, px)

    def rank_of(self, coords: tuple[int, int]) -> int:
        """Rank at process-grid coordinates ``(iy, ix)``."""
        iy, ix = coords
        py, px = self.pgrid
        if not (0 <= iy < py and 0 <= ix < px):
            raise DecompositionError(f"coords {coords} out of range for {py}x{px} grid")
        return iy * px + ix

    def subdomain(self, rank: int) -> Subdomain:
        """The block owned by ``rank``."""
        iy, ix = self.coords_of(rank)
        return Subdomain(rank, (iy, ix), self._y_ranges[iy], self._x_ranges[ix])

    def subdomains(self) -> list[Subdomain]:
        """All blocks in rank order."""
        return [self.subdomain(rank) for rank in range(self.num_subdomains)]

    def neighbour(self, rank: int, axis: int, direction: int) -> int | None:
        """Neighbouring rank along ``axis`` (0 = y, 1 = x) in
        ``direction`` (-1 or +1); ``None`` at a non-periodic domain
        boundary, the wrapped-around rank along a periodic axis."""
        if axis not in (0, 1):
            raise DecompositionError(f"axis must be 0 or 1, got {axis}")
        if direction not in (-1, 1):
            raise DecompositionError(f"direction must be -1 or +1, got {direction}")
        coords = list(self.coords_of(rank))
        coords[axis] += direction
        py, px = self.pgrid
        if not (0 <= coords[0] < py and 0 <= coords[1] < px):
            if not self.periodic[axis]:
                return None
            coords[axis] %= (py, px)[axis]
        return self.rank_of((coords[0], coords[1]))

    def physical_sides(self, rank: int) -> tuple[str, ...]:
        """The subdomain's local walls that are true physical domain
        boundaries, named in the solver's canonical side order
        (``"y_lo", "y_hi", "x_lo", "x_hi"``).

        Interior edges and walls on a periodic axis are excluded — both
        are closed by the halo exchange, not by a boundary stencil.
        Feed the result to :func:`repro.solver.local_boundary`.
        """
        iy, ix = self.coords_of(rank)
        py, px = self.pgrid
        sides = []
        if not self.periodic[0]:
            if iy == 0:
                sides.append("y_lo")
            if iy == py - 1:
                sides.append("y_hi")
        if not self.periodic[1]:
            if ix == 0:
                sides.append("x_lo")
            if ix == px - 1:
                sides.append("x_hi")
        return tuple(sides)

    # ------------------------------------------------------------------
    def halo_peers(self, rank: int) -> tuple[int, ...]:
        """The other ranks whose blocks a halo-extended :meth:`extract`
        of ``rank`` reads: axis and diagonal neighbours, wrapped along
        periodic axes, ``rank`` itself excluded.  Holds for any halo no
        wider than the smallest block (:meth:`check_halo`); the relation
        is symmetric."""
        peers = set()
        for dy in (-1, 0, 1):
            row = rank if dy == 0 else self.neighbour(rank, 0, dy)
            if row is None:
                continue
            for dx in (-1, 0, 1):
                peer = row if dx == 0 else self.neighbour(row, 1, dx)
                if peer is not None:
                    peers.add(peer)
        peers.discard(rank)
        return tuple(sorted(peers))

    def check_halo(self, halo: int) -> None:
        """Raise unless ``halo`` lines fit inside every block, i.e. a
        halo reaches no further than the adjacent blocks."""
        smallest = (
            self.field_shape[0] // self.pgrid[0],
            self.field_shape[1] // self.pgrid[1],
        )
        if halo > min(smallest):
            raise DecompositionError(
                f"halo {halo} exceeds the smallest block {smallest}; "
                "use fewer ranks or a finer grid"
            )

    # ------------------------------------------------------------------
    def _halo_segments(
        self, axis: int, start: int, stop: int, halo: int
    ) -> tuple[list[tuple[int, int, int]], int, int]:
        """How lines ``[start - halo, stop + halo)`` of global axis
        ``axis`` map into a halo-extended block: contiguous
        ``(block offset, field offset, length)`` runs, plus the number of
        lines beyond the low / high wall that no run covers (always zero
        on a periodic axis, which wraps instead)."""
        extent = self.field_shape[axis]
        lo, hi = start - halo, stop + halo
        if not self.periodic[axis]:
            clamped_lo, clamped_hi = max(lo, 0), min(hi, extent)
            run = (clamped_lo - lo, clamped_lo, clamped_hi - clamped_lo)
            return [run], clamped_lo - lo, hi - clamped_hi
        runs = []
        line = lo
        while line < hi:
            source = line % extent
            length = min(extent - source, hi - line)
            runs.append((line - lo, source, length))
            line += length
        return runs, 0, 0

    def extract(
        self,
        field: np.ndarray,
        rank: int,
        halo: int = 0,
        fill: str = "zero",
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Cut rank's block out of a global ``(..., H, W)`` field.

        With ``halo > 0`` the block is extended by ``halo`` grid lines
        on every side: neighbour data where a neighbour exists, and
        ``fill`` (``"zero"`` or ``"edge"`` replication) at physical
        domain boundaries.  This is the paper's "padding the input with
        data from neighbouring subdomains".

        The block is assembled by slice copies in ``out`` when given —
        every element is overwritten, so a loop can pass the same buffer
        each step — else in a new array.
        """
        if field.shape[-2:] != self.field_shape:
            raise DecompositionError(
                f"field shape {field.shape[-2:]} does not match decomposition "
                f"{self.field_shape}"
            )
        if halo < 0:
            raise DecompositionError(f"halo must be >= 0, got {halo}")
        if fill not in ("zero", "edge"):
            raise DecompositionError(f"unknown fill mode {fill!r} (use 'zero' or 'edge')")
        sub = self.subdomain(rank)
        if halo == 0 and out is None:
            return np.ascontiguousarray(field[..., sub.y_slice, sub.x_slice])
        h, w = sub.shape
        shape = field.shape[:-2] + (h + 2 * halo, w + 2 * halo)
        if out is None:
            out = np.empty(shape, dtype=field.dtype)
        elif out.shape != shape or out.dtype != field.dtype:
            raise DecompositionError(
                f"out is {out.dtype}{out.shape}, the extended block is "
                f"{field.dtype}{shape}"
            )
        y_runs, y_lo, y_hi = self._halo_segments(0, *sub.y_range, halo)
        x_runs, x_lo, x_hi = self._halo_segments(1, *sub.x_range, halo)
        for dst_y, src_y, rows in y_runs:
            for dst_x, src_x, cols in x_runs:
                out[..., dst_y : dst_y + rows, dst_x : dst_x + cols] = field[
                    ..., src_y : src_y + rows, src_x : src_x + cols
                ]
        # Beyond a physical wall: y first on the columns just copied,
        # then x over the y-extended lines (np.pad's axis order, and the
        # halo exchange's), so an edge-filled corner repeats the corner.
        bottom, right = shape[-2] - y_hi, shape[-1] - x_hi
        columns = slice(x_lo, right)
        edge = fill == "edge"
        if y_lo:
            out[..., :y_lo, columns] = out[..., y_lo : y_lo + 1, columns] if edge else 0
        if y_hi:
            out[..., bottom:, columns] = out[..., bottom - 1 : bottom, columns] if edge else 0
        if x_lo:
            out[..., :x_lo] = out[..., x_lo : x_lo + 1] if edge else 0
        if x_hi:
            out[..., right:] = out[..., right - 1 : right] if edge else 0
        return out

    def assemble(self, pieces: list[np.ndarray]) -> np.ndarray:
        """Reassemble a global ``(..., H, W)`` field from per-rank blocks
        (the inverse of halo-free :meth:`extract`, rank order)."""
        if len(pieces) != self.num_subdomains:
            raise DecompositionError(
                f"expected {self.num_subdomains} pieces, got {len(pieces)}"
            )
        lead_shape = pieces[0].shape[:-2]
        out = np.empty(lead_shape + self.field_shape, dtype=pieces[0].dtype)
        for rank, piece in enumerate(pieces):
            sub = self.subdomain(rank)
            if piece.shape[-2:] != sub.shape:
                raise DecompositionError(
                    f"piece {rank} has shape {piece.shape[-2:]}, expected {sub.shape}"
                )
            out[..., sub.y_slice, sub.x_slice] = piece
        return out

    def load_balance(self) -> float:
        """Ratio of largest to smallest block size (1.0 = perfect)."""
        sizes = [s.num_points for s in self.subdomains()]
        return max(sizes) / min(sizes)
