"""Boundary conditions.

The paper (Sec. IV-A) prescribes *outflow* boundaries on all four walls:
the pressure perturbation is set to zero while density and velocity get
homogeneous Neumann conditions.  Periodic and reflecting walls are
provided for the solver's own verification tests (energy conservation,
pulse wrap-around), and an absorbing sponge variant for the scenario
registry.

Every wall-writing condition is decomposed into *per-side* operations
over the canonical side order ``("y_lo", "y_hi", "x_lo", "x_hi")`` —
the order the original whole-domain functions wrote their edges in, so
corner cells come out bit-identical (pinned by golden tests).  The
per-side form is what makes boundary application compose with domain
decomposition: :func:`local_boundary` applies a condition only to the
sides of a subdomain that are true physical walls, leaving interior
edges to the halo exchange.

Scalar/array equations (diffusion, Allen-Cahn) use the channel-agnostic
*field* conditions (:func:`get_field_boundary`) which act on any
``(..., ny, nx)`` stack.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from .state import EulerState

#: Canonical application order; preserving it preserves corner values.
SIDES: tuple[str, ...] = ("y_lo", "y_hi", "x_lo", "x_hi")

#: side -> (wall index, first interior index) as numpy index tuples
_WALLS: dict[str, tuple[tuple, tuple]] = {
    "y_lo": ((0, slice(None)), (1, slice(None))),
    "y_hi": ((-1, slice(None)), (-2, slice(None))),
    "x_lo": ((slice(None), 0), (slice(None), 1)),
    "x_hi": ((slice(None), -1), (slice(None), -2)),
}


def _check_side(side: str) -> None:
    if side not in _WALLS:
        raise ConfigurationError(f"unknown side {side!r}; choose from {SIDES}")


def apply_outflow_side(state: EulerState, side: str) -> EulerState:
    """Paper outflow on one wall: ``p' = 0``, zero normal gradient for
    ``rho'``, ``u'``, ``v'``."""
    _check_side(side)
    wall, interior = _WALLS[side]
    state.p[wall] = 0.0
    for field in (state.rho, state.u, state.v):
        field[wall] = field[interior]
    return state


def apply_reflecting_side(state: EulerState, side: str) -> EulerState:
    """Rigid wall on one side: zero normal velocity, zero normal
    gradient of ``p'``, ``rho'`` and the tangential velocity."""
    _check_side(side)
    wall, interior = _WALLS[side]
    normal, tangential = (state.v, state.u) if side.startswith("y") else (state.u, state.v)
    normal[wall] = 0.0
    for field in (state.p, state.rho):
        field[wall] = field[interior]
    tangential[wall] = tangential[interior]
    return state


def apply_outflow(state: EulerState) -> EulerState:
    """Paper outflow: ``p' = 0`` on the wall, zero normal gradient for
    ``rho'``, ``u'``, ``v'`` (values copied from the first interior
    line).  Applied in place, returns the state."""
    for side in SIDES:
        apply_outflow_side(state, side)
    return state


def apply_reflecting(state: EulerState) -> EulerState:
    """Rigid walls: zero normal velocity, zero normal gradient of
    ``p'`` and ``rho'``.  Conserves acoustic energy (up to scheme
    dissipation), which the verification tests rely on."""
    for side in SIDES:
        apply_reflecting_side(state, side)
    return state


def apply_periodic(state: EulerState) -> EulerState:
    """Wrap-around walls: each edge copies the opposite interior line.

    On a node-centred grid the first and last nodes represent the same
    physical point, so edge nodes mirror the opposite side's first
    interior node.  There is no per-side form — a periodic wall is not
    local; under domain decomposition it is realised by the periodic
    halo wrap instead (see :class:`repro.domain.HaloExchanger`)."""
    for field in (state.p, state.rho, state.u, state.v):
        field[0, :] = field[-2, :]
        field[-1, :] = field[1, :]
        field[:, 0] = field[:, -2]
        field[:, -1] = field[:, 1]
    return state


@lru_cache(maxsize=64)
def _sponge_damping(
    shape: tuple[int, int],
    width: int,
    strength: float,
    offset: tuple[int, int] = (0, 0),
    global_shape: tuple[int, int] | None = None,
) -> np.ndarray:
    """Damping factor field for the sponge band.

    Distances are measured to the *global* walls: ``offset`` places a
    local ``shape`` window inside ``global_shape`` so a subdomain damps
    exactly the cells the whole-domain sponge would.  Built once per
    argument set and shared read-only, so a step only multiplies."""
    ny, nx = global_shape if global_shape is not None else shape
    band = min(width, ny // 2, nx // 2)
    y0, x0 = offset
    y = np.arange(y0, y0 + shape[0])
    x = np.arange(x0, x0 + shape[1])
    dist = np.minimum.outer(np.minimum(y, ny - 1 - y), np.minimum(x, nx - 1 - x))
    ramp = np.clip((band - dist) / band, 0.0, 1.0)
    damping = 1.0 - strength * ramp**2
    damping.flags.writeable = False
    return damping


def make_sponge(width: int = 8, strength: float = 0.05) -> "BoundaryCondition":
    """Absorbing sponge layer (an *extension* beyond the paper's BC).

    The paper's outflow condition (``p' = 0`` on the wall) is a
    pressure-release surface: it reflects the pulse with inverted sign
    instead of letting it leave.  The sponge damps all perturbation
    fields inside a boundary band of ``width`` cells with a smoothly
    increasing coefficient, absorbing outgoing waves; the paper outflow
    condition is applied at the wall itself.
    """
    if width < 1:
        raise ConfigurationError(f"sponge width must be >= 1, got {width}")
    if not 0.0 < strength < 1.0:
        raise ConfigurationError(f"sponge strength must be in (0, 1), got {strength}")

    def apply_sponge(state: EulerState) -> EulerState:
        damping = _sponge_damping(state.p.shape, width, strength)
        for field in (state.p, state.rho, state.u, state.v):
            field *= damping
        return apply_outflow(state)

    return apply_sponge


BoundaryCondition = Callable[[EulerState], EulerState]

_SIDE_OPS: dict[str, Callable[[EulerState, str], EulerState]] = {
    "outflow": apply_outflow_side,
    "reflecting": apply_reflecting_side,
}

_BOUNDARIES: dict[str, BoundaryCondition] = {
    "outflow": apply_outflow,
    "reflecting": apply_reflecting,
    "periodic": apply_periodic,
    "sponge": make_sponge(),
}


def get_boundary_condition(name: str) -> BoundaryCondition:
    """Resolve a boundary condition by name."""
    try:
        return _BOUNDARIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown boundary condition {name!r}; choose from {sorted(_BOUNDARIES)}"
        ) from None


def local_boundary(
    name: str,
    sides: Sequence[str],
    *,
    y_range: tuple[int, int] | None = None,
    x_range: tuple[int, int] | None = None,
    global_shape: tuple[int, int] | None = None,
    width: int = 8,
    strength: float = 0.05,
) -> BoundaryCondition:
    """Boundary condition restricted to a subdomain's physical walls.

    ``sides`` lists the walls of the local array that coincide with the
    global domain boundary (see
    :meth:`repro.domain.BlockDecomposition.physical_sides`); interior
    edges are *not* touched — they are owned by the halo exchange.

    ``periodic`` returns the identity: a periodic wall is closed by the
    periodic halo wrap, not by a local stencil.  ``sponge`` needs the
    subdomain's position (``y_range``/``x_range``) and the
    ``global_shape`` so the damping band follows the global walls.
    """
    for side in sides:
        _check_side(side)
    ordered = tuple(side for side in SIDES if side in sides)

    if name == "periodic":
        def apply_nothing(state: EulerState) -> EulerState:
            return state

        return apply_nothing

    if name == "sponge":
        if y_range is None or x_range is None or global_shape is None:
            raise ConfigurationError(
                "local sponge boundary needs y_range, x_range and global_shape"
            )
        if not 0.0 < strength < 1.0:
            raise ConfigurationError(f"sponge strength must be in (0, 1), got {strength}")

        def apply_local_sponge(state: EulerState) -> EulerState:
            damping = _sponge_damping(
                state.p.shape,
                width,
                strength,
                offset=(y_range[0], x_range[0]),
                global_shape=global_shape,
            )
            for field in (state.p, state.rho, state.u, state.v):
                field *= damping
            for side in ordered:
                apply_outflow_side(state, side)
            return state

        return apply_local_sponge

    try:
        side_op = _SIDE_OPS[name]
    except KeyError:
        raise ConfigurationError(
            f"boundary condition {name!r} has no local form; "
            f"choose from {sorted([*_SIDE_OPS, 'periodic', 'sponge'])}"
        ) from None

    def apply_local(state: EulerState) -> EulerState:
        for side in ordered:
            side_op(state, side)
        return state

    return apply_local


# -- channel-agnostic field conditions (diffusion, Allen-Cahn, ...) -----

FieldBoundaryCondition = Callable[[np.ndarray], np.ndarray]


def apply_field_periodic(fields: np.ndarray) -> np.ndarray:
    """Wrap-around walls on a ``(..., ny, nx)`` stack (node-centred:
    edge nodes mirror the opposite side's first interior line)."""
    fields[..., 0, :] = fields[..., -2, :]
    fields[..., -1, :] = fields[..., 1, :]
    fields[..., :, 0] = fields[..., :, -2]
    fields[..., :, -1] = fields[..., :, 1]
    return fields


def apply_field_neumann(fields: np.ndarray) -> np.ndarray:
    """Zero normal gradient on every wall (insulated / no-flux)."""
    fields[..., 0, :] = fields[..., 1, :]
    fields[..., -1, :] = fields[..., -2, :]
    fields[..., :, 0] = fields[..., :, 1]
    fields[..., :, -1] = fields[..., :, -2]
    return fields


def apply_field_dirichlet(fields: np.ndarray) -> np.ndarray:
    """Homogeneous Dirichlet: the fields vanish on every wall."""
    fields[..., 0, :] = 0.0
    fields[..., -1, :] = 0.0
    fields[..., :, 0] = 0.0
    fields[..., :, -1] = 0.0
    return fields


_FIELD_BOUNDARIES: dict[str, FieldBoundaryCondition] = {
    "periodic": apply_field_periodic,
    "neumann": apply_field_neumann,
    "dirichlet": apply_field_dirichlet,
}


def get_field_boundary(name: str) -> FieldBoundaryCondition:
    """Resolve a channel-agnostic field boundary condition by name."""
    try:
        return _FIELD_BOUNDARIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown field boundary condition {name!r}; "
            f"choose from {sorted(_FIELD_BOUNDARIES)}"
        ) from None
