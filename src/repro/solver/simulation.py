"""Simulation driver: time loop, stability guard, snapshot recording.

This is the package's *Ateles* stand-in: it advances the linearized
Euler equations and records the channel-stacked snapshots
``(T, 4, ny, nx)`` that become the CNN training data.

Both drivers — the paper-baseline :class:`Simulation` (Euler, with the
paper's wall conditions) and the channel-agnostic
:class:`FieldSimulation` (any :class:`~repro.solver.Equation`) — share
one time loop through :class:`SteppedSimulation`.  The loop steps one
contiguous ``(C, ny, nx)`` stack in place: each calling thread binds its
integrator stage buffers and stencil scratch on its first ``advance``
(Parareal's rank threads share one fine propagator), after which a step
allocates no field.  ``advance`` is also the package-wide
:class:`Stepper` contract (channel stack in, the stack ``n`` steps later
out), which the CNN ensemble implements too, so the Parareal driver and
``rollout`` take either.  The sha256 golden tests pin the loop bit for
bit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from ..exceptions import SolverError
from .boundary import (
    BoundaryCondition,
    FieldBoundaryCondition,
    get_boundary_condition,
    get_field_boundary,
)
from .equations import Equation, LinearizedEuler
from .grid import UniformGrid2D
from .state import EulerState
from .time_integrators import STAGES, get_integrator


@dataclass
class SimulationResult:
    """Output of a simulation run."""

    #: snapshots of shape ``(T, C, ny, nx)`` — Euler runs have C = 4 in
    #: channel order (p, rho, u, v); scalar equations have C = 1
    snapshots: np.ndarray
    #: simulation time of each snapshot
    times: np.ndarray
    #: acoustic energy at each snapshot (diagnostic)
    energies: np.ndarray
    #: the time step used
    dt: float

    @property
    def num_snapshots(self) -> int:
        return self.snapshots.shape[0]


class Stepper(Protocol):
    """Anything that advances a field: solver, CNN, CNN ensemble."""

    def advance(
        self, state: np.ndarray, num_steps: int = 1, out: np.ndarray | None = None
    ) -> np.ndarray:
        """The ``(C, ny, nx)`` stack ``num_steps`` steps after ``state``.

        ``state`` is never written.  The result lands in ``out`` when
        given — which must not overlap ``state`` — and ``out`` is then
        what is returned; otherwise in a new array.
        """
        ...


class SteppedSimulation:
    """The shared stepping surface of :class:`Simulation` and
    :class:`FieldSimulation`.

    Subclasses set the equation, the integrator (``None`` for the
    equation's own Strang step) and the boundary application; this base
    owns the one ``advance``/``run`` loop.  ``advance`` takes an
    :class:`EulerState` or a plain channel stack: every simulation is a
    :class:`Stepper`.
    """

    # set by the subclass dataclasses / their __post_init__
    grid: UniformGrid2D
    cfl: float
    dt: float
    _equation: Equation
    _local: threading.local

    def _setup(self, equation: Equation, integrator: str | None) -> None:
        self._equation = equation
        self._step = None if integrator is None else get_integrator(integrator)
        self._local = threading.local()
        self.dt = equation.stable_dt(self.grid.dx, self.grid.dy, self.cfl)

    def _apply_boundary(self, fields: np.ndarray) -> None:
        """The wall condition, in place on a ``(C, ny, nx)`` stack."""
        raise NotImplementedError

    @property
    def num_channels(self) -> int:
        return self._equation.num_channels

    def _workspace(self) -> threading.local:
        """This thread's stage buffers and right-hand side, bound on its
        first call."""
        local = self._local
        if not hasattr(local, "stages"):
            shape = (self.num_channels,) + self.grid.shape
            buffers = np.empty((STAGES + 2,) + shape)
            local.stages, scratch = buffers[:STAGES], buffers[STAGES:]
            equation, dx, dy = self._equation, self.grid.dx, self.grid.dy
            local.rhs = lambda fields, out: equation.rhs_into(fields, dx, dy, out, scratch)
        return local

    def _stack(self, state) -> np.ndarray:
        """``state`` as a ``(C, ny, nx)`` array on this grid."""
        fields = state.to_array() if isinstance(state, EulerState) else np.asarray(state)
        expected = (self.num_channels,) + self.grid.shape
        if fields.shape != expected:
            raise SolverError(
                f"state shape {fields.shape} does not match (channels,) + grid "
                f"shape {expected}"
            )
        return fields

    # -- the one stepping surface --------------------------------------
    def advance(self, state, num_steps: int = 1, out: np.ndarray | None = None):
        """Advance ``state`` by ``num_steps`` time steps (not in place).

        An :class:`EulerState` comes back as one; a ``(C, ny, nx)`` stack
        comes back as a float64 stack — written to ``out`` when given,
        per :class:`Stepper`.
        """
        fields = self._stack(state)
        direct = out is not None and out.dtype == float and out.flags.c_contiguous
        work = out if direct else np.empty(fields.shape)
        np.copyto(work, fields)
        local, (dx, dy) = self._workspace(), (self.grid.dx, self.grid.dy)
        for _ in range(num_steps):
            if self._step is None:
                work[...] = self._equation.strang_step(work, dx, dy, self.dt)
            else:
                self._step(work, local.rhs, self.dt, local.stages)
            self._apply_boundary(work)
        if out is not None:
            if not direct:
                np.copyto(out, work)
            return out
        return EulerState(*work) if isinstance(state, EulerState) else work

    def run(
        self,
        initial,
        num_snapshots: int,
        steps_per_snapshot: int = 1,
        check_stability: bool = True,
    ) -> SimulationResult:
        """Run and record ``num_snapshots`` states (including the initial
        one, boundary-conditioned) spaced ``steps_per_snapshot`` solver
        steps apart.

        Raises :class:`~repro.exceptions.SolverError` if the solution
        blows up (non-finite values), which catches CFL violations early.
        """
        if num_snapshots < 1:
            raise SolverError("num_snapshots must be >= 1")
        if steps_per_snapshot < 1:
            raise SolverError("steps_per_snapshot must be >= 1")
        snapshots = np.empty((num_snapshots, self.num_channels) + self.grid.shape)
        times = np.empty(num_snapshots)
        energies = np.empty(num_snapshots)
        np.copyto(snapshots[0], self._stack(initial))
        self._apply_boundary(snapshots[0])

        for index, state in enumerate(snapshots):
            if index > 0:
                self.advance(snapshots[index - 1], steps_per_snapshot, out=state)
            if check_stability and not np.isfinite(state).all():
                raise SolverError(
                    f"solution blew up at snapshot {index} "
                    f"(dt={self.dt:.3e}, cfl={self.cfl}); reduce the CFL number"
                )
            times[index] = index * steps_per_snapshot * self.dt
            energies[index] = self._equation.energy(state, self.grid.dx, self.grid.dy)
        return SimulationResult(snapshots, times, energies, self.dt)


@dataclass
class Simulation(SteppedSimulation):
    """Configurable linearized-Euler run.

    Parameters
    ----------
    grid:
        Spatial discretization.
    equations:
        The PDE system (background + dissipation).
    boundary:
        Name of the boundary condition (paper: ``"outflow"``).
    integrator:
        Name of the time integrator (default ``"rk4"``).
    cfl:
        CFL number used to pick the time step (paper-faithful runs keep
        the default 0.5).
    """

    grid: UniformGrid2D
    equations: LinearizedEuler = field(default_factory=LinearizedEuler)
    boundary: str = "outflow"
    integrator: str = "rk4"
    cfl: float = 0.5

    def __post_init__(self) -> None:
        self._bc: BoundaryCondition = get_boundary_condition(self.boundary)
        self._setup(self.equations, self.integrator)

    def _apply_boundary(self, fields: np.ndarray) -> None:
        self._bc(EulerState(*fields))  # the stack's channels, as views


@dataclass
class FieldSimulation(SteppedSimulation):
    """Channel-agnostic run of any :class:`~repro.solver.Equation`.

    The array twin of :class:`Simulation`: the boundary condition is one
    of the field conditions (``periodic`` / ``neumann`` / ``dirichlet``)
    and the integrator is either a generic explicit scheme (``rk4``
    etc.) or ``"strang"``, which delegates to the equation's own split
    stepper (Allen-Cahn).

    :class:`Simulation` remains the paper-baseline Euler driver; this
    class is what the scenario registry uses for every non-Euler
    equation.
    """

    grid: UniformGrid2D
    equation: Equation
    boundary: str = "periodic"
    integrator: str = "rk4"
    cfl: float = 0.5

    def __post_init__(self) -> None:
        self._bc: FieldBoundaryCondition = get_field_boundary(self.boundary)
        strang = self.integrator == "strang"
        if strang and getattr(self.equation, "strang_step", None) is None:
            raise SolverError(
                f"integrator 'strang' needs a strang_step method on the "
                f"equation, which {type(self.equation).__name__} lacks"
            )
        self._setup(self.equation, None if strang else self.integrator)

    def _apply_boundary(self, fields: np.ndarray) -> None:
        self._bc(fields)
