"""Simulation driver: time loop, stability guard, snapshot recording.

This is the package's *Ateles* stand-in: it advances the linearized
Euler equations and records the channel-stacked snapshots
``(T, 4, ny, nx)`` that become the CNN training data.

Both drivers — the paper-baseline :class:`Simulation` (EulerState in,
EulerState out) and the channel-agnostic :class:`FieldSimulation`
(plain ``(C, ny, nx)`` stacks) — share one time loop through
:class:`SteppedSimulation`: a single ``advance``/``run`` implementation.
``advance`` is also the package-wide :class:`Stepper` contract (channel
stack in, the stack ``n`` steps later out), which the CNN ensemble
implements too, so the Parareal driver and ``rollout`` take either.
The loop structure is bit-exact to the historical per-class loops,
pinned by the sha256 golden tests.
"""

from __future__ import annotations

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
from .state import NUM_CHANNELS, EulerState
from .time_integrators import Integrator, get_integrator


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

    Subclasses provide the representation-specific hooks (one solver
    step, initial-state validation, array conversion, diagnostics);
    this base owns the single ``advance``/``run`` loop both drivers
    used to duplicate.  ``advance`` takes the driver's own state type or
    a plain channel stack: every simulation is a :class:`Stepper`.
    """

    # set by the subclass dataclasses / their __post_init__
    grid: UniformGrid2D
    cfl: float
    dt: float

    # -- representation hooks ------------------------------------------
    def _step_once(self, state):
        """One solver step (integrator + boundary), not in place."""
        raise NotImplementedError

    def _prepare_initial(self, initial):
        """Validate, copy, and boundary-condition the initial state."""
        raise NotImplementedError

    def _state_array(self, state) -> np.ndarray:
        """``(C, ny, nx)`` view/copy of ``state`` (default: it is one)."""
        return state

    def _state_from_array(self, fields: np.ndarray):
        """Inverse of :meth:`_state_array` (no boundary application)."""
        return np.asarray(fields, dtype=float)

    def _is_finite(self, state) -> bool:
        raise NotImplementedError

    def _energy(self, state) -> float:
        raise NotImplementedError

    @property
    def num_channels(self) -> int:
        raise NotImplementedError

    # -- the one stepping surface --------------------------------------
    def advance(self, state, num_steps: int = 1, out: np.ndarray | None = None):
        """Advance ``state`` by ``num_steps`` time steps (not in place).

        An :class:`EulerState` comes back as one; a ``(C, ny, nx)`` stack
        (Euler runs convert it through :class:`EulerState`) comes back as
        a stack — written to ``out`` when given, per :class:`Stepper`.
        """
        stack = not isinstance(state, EulerState)
        current = self._state_from_array(state) if stack else state
        for _ in range(num_steps):
            current = self._step_once(current)
        if out is not None:
            np.copyto(out, self._state_array(current))
            return out
        return self._state_array(current) if stack else current

    def run(
        self,
        initial,
        num_snapshots: int,
        steps_per_snapshot: int = 1,
        check_stability: bool = True,
    ) -> SimulationResult:
        """Run and record ``num_snapshots`` states (including the initial
        one) spaced ``steps_per_snapshot`` solver steps apart.

        Raises :class:`~repro.exceptions.SolverError` if the solution
        blows up (non-finite values), which catches CFL violations early.
        """
        if num_snapshots < 1:
            raise SolverError("num_snapshots must be >= 1")
        if steps_per_snapshot < 1:
            raise SolverError("steps_per_snapshot must be >= 1")
        state = self._prepare_initial(initial)
        ny, nx = self.grid.shape
        snapshots = np.empty((num_snapshots, self.num_channels, ny, nx))
        times = np.empty(num_snapshots)
        energies = np.empty(num_snapshots)

        for index in range(num_snapshots):
            if index > 0:
                state = self.advance(state, steps_per_snapshot)
            if check_stability and not self._is_finite(state):
                raise SolverError(
                    f"solution blew up at snapshot {index} "
                    f"(dt={self.dt:.3e}, cfl={self.cfl}); reduce the CFL number"
                )
            snapshots[index] = self._state_array(state)
            times[index] = index * steps_per_snapshot * self.dt
            energies[index] = self._energy(state)
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
        self._step: Integrator = get_integrator(self.integrator)
        self.dt = self.equations.stable_dt(self.grid.dx, self.grid.dy, self.cfl)

    def _rhs(self, state: EulerState) -> EulerState:
        return self.equations.rhs(state, self.grid.dx, self.grid.dy)

    # -- SteppedSimulation hooks ---------------------------------------
    def _step_once(self, state: EulerState) -> EulerState:
        state = self._step(state, self._rhs, self.dt)
        self._bc(state)
        return state

    def _prepare_initial(self, initial: EulerState) -> EulerState:
        if initial.shape != self.grid.shape:
            raise SolverError(
                f"initial state shape {initial.shape} does not match grid "
                f"{self.grid.shape}"
            )
        state = initial.copy()
        self._bc(state)
        return state

    def _state_array(self, state: EulerState) -> np.ndarray:
        return state.to_array()

    def _state_from_array(self, fields: np.ndarray) -> EulerState:
        return EulerState.from_array(np.asarray(fields, dtype=float))

    def _is_finite(self, state: EulerState) -> bool:
        return state.is_finite()

    def _energy(self, state: EulerState) -> float:
        return self.equations.acoustic_energy(state, self.grid.dx, self.grid.dy)

    @property
    def num_channels(self) -> int:
        return NUM_CHANNELS


@dataclass
class FieldSimulation(SteppedSimulation):
    """Channel-agnostic run of any :class:`~repro.solver.Equation`.

    The array twin of :class:`Simulation`: states are plain
    ``(C, ny, nx)`` stacks, the boundary condition is one of the field
    conditions (``periodic`` / ``neumann`` / ``dirichlet``) and the
    integrator is either a generic explicit scheme (``rk4`` etc. — they
    are duck-typed and advance arrays unchanged) or ``"strang"``, which
    delegates to the equation's own split stepper (Allen-Cahn).

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
        if self.integrator == "strang":
            stepper = getattr(self.equation, "strang_step", None)
            if stepper is None:
                raise SolverError(
                    f"integrator 'strang' needs a strang_step method on the "
                    f"equation, which {type(self.equation).__name__} lacks"
                )
            self._step = None
        else:
            self._step = get_integrator(self.integrator)
        self.dt = self.equation.stable_dt(self.grid.dx, self.grid.dy, self.cfl)

    def _rhs(self, fields: np.ndarray) -> np.ndarray:
        return self.equation.rhs_array(fields, self.grid.dx, self.grid.dy)

    # -- SteppedSimulation hooks ---------------------------------------
    def _step_once(self, fields: np.ndarray) -> np.ndarray:
        if self._step is None:
            fields = self.equation.strang_step(
                fields, self.grid.dx, self.grid.dy, self.dt
            )
        else:
            fields = self._step(fields, self._rhs, self.dt)
        self._bc(fields)
        return fields

    def _prepare_initial(self, initial: np.ndarray) -> np.ndarray:
        initial = np.asarray(initial, dtype=float)
        expected = (self.equation.num_channels,) + self.grid.shape
        if initial.shape != expected:
            raise SolverError(
                f"initial fields shape {initial.shape} does not match "
                f"(channels,) + grid shape {expected}"
            )
        return self._bc(initial.copy())

    def _is_finite(self, fields: np.ndarray) -> bool:
        return bool(np.isfinite(fields).all())

    def _energy(self, fields: np.ndarray) -> float:
        return self.equation.energy(fields, self.grid.dx, self.grid.dy)

    @property
    def num_channels(self) -> int:
        return self.equation.num_channels
