"""Finite-difference derivative operators.

Central differences in the interior (second order by default, fourth
order optionally) with one-sided stencils at the boundaries, fully
vectorized (no Python loop over grid points, per the HPC guidance).

Every operator acts on the last two axes of a C-contiguous ``(..., ny,
nx)`` array — one field or a channel stack — and writes into ``out``
when given.  The interior is computed as 1-D shifts of the flattened
array: x-neighbours of element ``i`` are ``i ± 1``, y-neighbours
``i ± nx``.  The positions where such a shift wraps a row (or crosses
into the next channel) are exactly the edge positions, which the edge
stencils then overwrite.  ``scratch`` is caller-owned work space of at
least ``field.size`` elements (allocated when omitted).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import SolverError

_C0 = (-25.0, 48.0, -36.0, 16.0, -3.0)
_C1 = (-3.0, -10.0, 18.0, -6.0, 1.0)


def _flat(array: np.ndarray) -> np.ndarray:
    if not array.flags.c_contiguous:
        raise SolverError("stencil buffers must be C-contiguous")
    return array.reshape(-1)


def _prepare(field: np.ndarray, out: np.ndarray | None):
    field = np.ascontiguousarray(field)
    out = np.empty_like(field) if out is None else out
    return field, out, _flat(field), _flat(out)


def _work(scratch: np.ndarray | None, size: int, dtype) -> np.ndarray:
    return np.empty(size, dtype) if scratch is None else _flat(scratch)[:size]


def _derivative(field, h, order, out, scratch, axis):
    """∂/∂(axis) with ``axis`` -1 (x) or -2 (y): flat shift ``s`` is 1
    or ``nx``, and ``at(i)`` indexes line ``i`` along the axis."""
    need = {2: 3, 4: 6}.get(order)
    if need is None:
        raise SolverError(f"unsupported stencil order {order} (use 2 or 4)")
    name = "x" if axis == -1 else "y"
    if field.shape[axis] < need:
        raise SolverError(f"order-{order} dd{name} needs at least {need} points along {name}")
    field, out, f, o = _prepare(field, out)
    s = 1 if axis == -1 else field.shape[-1]

    def at(i):
        return (..., i) if axis == -1 else (..., i, slice(None))

    if order == 2:
        inv2 = 1.0 / (2.0 * h)
        inner = o[s:-s]
        np.subtract(f[2 * s :], f[: -2 * s], out=inner)
        np.multiply(inner, inv2, out=inner)
        # Second-order one-sided stencils at the edges.
        out[at(0)] = (-3.0 * field[at(0)] + 4.0 * field[at(1)] - field[at(2)]) * inv2
        out[at(-1)] = (3.0 * field[at(-1)] - 4.0 * field[at(-2)] + field[at(-3)]) * inv2
        return out
    inv12 = 1.0 / (12.0 * h)
    inner = o[2 * s : -2 * s]
    t = _work(scratch, inner.size, out.dtype)
    np.negative(f[4 * s :], out=inner)
    np.add(inner, np.multiply(f[3 * s : -s], 8.0, out=t), out=inner)
    np.subtract(inner, np.multiply(f[s : -3 * s], 8.0, out=t), out=inner)
    np.add(inner, f[: -4 * s], out=inner)
    np.multiply(inner, inv12, out=inner)
    # Fourth-order one-sided / skewed stencils at the edges.
    out[at(0)] = sum(c * field[at(i)] for i, c in enumerate(_C0)) * inv12
    out[at(1)] = sum(c * field[at(i)] for i, c in enumerate(_C1)) * inv12
    out[at(-1)] = -sum(c * field[at(-1 - i)] for i, c in enumerate(_C0)) * inv12
    out[at(-2)] = -sum(c * field[at(-1 - i)] for i, c in enumerate(_C1)) * inv12
    return out


def ddx(
    field: np.ndarray,
    dx: float,
    order: int = 2,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """∂field/∂x over the last axis of a ``(..., ny, nx)`` array.

    ``order`` selects the interior stencil: 2 (3-point central) or 4
    (5-point central); boundary columns always fall back to the widest
    one-sided stencil the grid allows for that order.  Only order 4
    uses ``scratch``.
    """
    return _derivative(field, dx, order, out, scratch, axis=-1)


def ddy(
    field: np.ndarray,
    dy: float,
    order: int = 2,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """∂field/∂y over the second-to-last axis of a ``(..., ny, nx)``
    array: the :func:`ddx` stencils with the flat shift ``nx``, so both
    axes see identical operations."""
    return _derivative(field, dy, order, out, scratch, axis=-2)


def divergence(
    u: np.ndarray, v: np.ndarray, dx: float, dy: float, order: int = 2
) -> np.ndarray:
    """∇·(u, v) on a ``(ny, nx)`` grid."""
    return ddx(u, dx, order=order) + ddy(v, dy, order=order)


def laplacian(
    field: np.ndarray,
    dx: float,
    dy: float,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Five-point Laplacian over the last two axes, all channels in one
    pass.  Only the interior is differenced; every edge value is exactly
    ``0.0`` (adequate for the artificial-dissipation term)."""
    field, out, f, o = _prepare(field, out)
    nx = field.shape[-1]
    n = f.size
    inner = o[nx + 1 : n - nx - 1]
    twice = np.multiply(f[nx + 1 : n - nx - 1], 2.0, out=_work(scratch, inner.size, out.dtype))
    np.subtract(f[nx + 2 : n - nx], twice, out=inner)
    np.add(inner, f[nx : n - nx - 2], out=inner)
    np.divide(inner, dx**2, out=inner)
    np.subtract(f[2 * nx + 1 : n - 1], twice, out=twice)
    np.add(twice, f[1 : n - 2 * nx - 1], out=twice)
    np.divide(twice, dy**2, out=twice)
    np.add(inner, twice, out=inner)
    out[..., 0, :] = out[..., -1, :] = 0.0
    out[..., :, 0] = out[..., :, -1] = 0.0
    return out
