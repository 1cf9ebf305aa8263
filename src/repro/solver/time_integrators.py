"""Explicit time integrators for the method-of-lines system.

Each integrator advances a C-contiguous ``(C, ny, nx)`` stack in place.
``rhs(fields, out)`` writes the time derivative of ``fields`` into
``out``; ``stages`` is the caller's ``(STAGES, C, ny, nx)`` work space,
so a warm step allocates no field.  Every element sees the operations
of the textbook vector form (``state + dt * k`` and so on) in the same
order.  Boundary conditions are applied by the caller (the simulation
drivers) after each full step.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..exceptions import ConfigurationError

RHSFn = Callable[[np.ndarray, np.ndarray], object]

#: stage buffers every integrator's ``stages`` argument must hold
STAGES = 3


def euler_step(state: np.ndarray, rhs: RHSFn, dt: float, stages: np.ndarray) -> None:
    """Forward Euler (first order).  Unconditionally unstable for pure
    central advection — provided for demonstration/ablation only."""
    k = stages[0]
    rhs(state, k)
    np.add(state, np.multiply(k, dt, out=k), out=state)


def heun_step(state: np.ndarray, rhs: RHSFn, dt: float, stages: np.ndarray) -> None:
    """Heun / RK2 (second order)."""
    k1, k2, y = stages
    rhs(state, k1)
    rhs(np.add(state, np.multiply(k1, dt, out=y), out=y), k2)
    np.multiply(np.add(k1, k2, out=k1), 0.5 * dt, out=k1)
    np.add(state, k1, out=state)


def rk4_step(state: np.ndarray, rhs: RHSFn, dt: float, stages: np.ndarray) -> None:
    """Classic fourth-order Runge-Kutta (the production integrator).

    ``total`` accumulates ``k1 + 2 k2 + 2 k3 + k4`` left to right while
    ``k`` holds the newest stage."""
    total, k, y = stages
    rhs(state, total)
    rhs(np.add(state, np.multiply(total, 0.5 * dt, out=y), out=y), k)
    for h in (0.5 * dt, dt):  # k3 from k2, then k4 from k3
        np.add(state, np.multiply(k, h, out=y), out=y)
        np.add(total, np.multiply(k, 2.0, out=k), out=total)
        rhs(y, k)
    np.add(total, k, out=total)
    np.add(state, np.multiply(total, dt / 6.0, out=total), out=state)


Integrator = Callable[[np.ndarray, RHSFn, float, np.ndarray], None]

_INTEGRATORS: dict[str, Integrator] = {
    "euler": euler_step,
    "heun": heun_step,
    "rk2": heun_step,
    "rk4": rk4_step,
}


def get_integrator(name: str) -> Integrator:
    """Resolve an integrator by name (``euler``, ``heun``/``rk2``, ``rk4``)."""
    try:
        return _INTEGRATORS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown integrator {name!r}; choose from {sorted(_INTEGRATORS)}"
        ) from None
