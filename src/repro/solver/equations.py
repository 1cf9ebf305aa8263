"""PDE right-hand sides: linearized Euler (Eq. 8 of the paper) plus the
scenario-registry extensions (2-D diffusion, Allen-Cahn).

All equations implement the array-level :class:`Equation` interface on
channel-stacked ``(C, ny, nx)`` fields.  Each has one right-hand side,
``rhs_into``, which writes into caller-owned buffers — what the
simulation drivers' in-place integrators call every stage.
``rhs_array`` is the allocating wrapper the physics-residual evaluator
and the tests use.  Equations keep no per-call state, so the threads of
a parallel solve can share one.

The 2-D linearized Euler equations:

Linearization of the compressible Euler equations around a constant
background ``(rho_c, u_c, v_c, p_c)``:

.. math::
    \\partial_t \\rho' + u_c\\!\\cdot\\!\\nabla \\rho' + \\rho_c \\nabla\\!\\cdot\\! u' &= 0 \\\\
    \\partial_t u' + u_c\\!\\cdot\\!\\nabla u' + \\tfrac{1}{\\rho_c} \\nabla p' &= 0 \\\\
    \\partial_t p' + u_c\\!\\cdot\\!\\nabla p' + \\gamma p_c \\nabla\\!\\cdot\\! u' &= 0

(for a constant background the paper's conservative form ∇·(u_c q + …)
reduces to this advective form).  The sound speed of the background is
``c = sqrt(gamma * p_c / rho_c)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError, SolverError
from .derivatives import ddx, ddy, laplacian
from .state import CHANNELS, EulerState


class Equation:
    """Array-level PDE interface used by the scenario registry.

    Implementations advance channel-stacked ``(C, ny, nx)`` fields; the
    channel names are exposed so datasets, CNN configs and reports can
    adapt to the equation (4 channels for Euler, 1 for the scalar
    equations).
    """

    #: channel names, e.g. ``("p", "rho", "u", "v")`` or ``("u",)``
    channels: tuple[str, ...] = ()

    @property
    def num_channels(self) -> int:
        return len(self.channels)

    def rhs_into(
        self, fields: np.ndarray, dx: float, dy: float, out: np.ndarray, scratch: np.ndarray
    ) -> None:
        """Write the time derivative of the C-contiguous ``fields`` into
        ``out`` (same shape, not overlapping), using ``scratch`` — a
        ``(2,) + fields.shape`` array — as work space."""
        raise NotImplementedError

    def rhs_array(self, fields: np.ndarray, dx: float, dy: float) -> np.ndarray:
        """Time derivative of the channel-stacked ``fields``, in a new
        array of their floating dtype."""
        fields = np.ascontiguousarray(fields, dtype=np.result_type(fields, 1.0))
        out = np.empty_like(fields)
        self.rhs_into(fields, dx, dy, out, np.empty((2,) + fields.shape, fields.dtype))
        return out

    def stable_dt(self, dx: float, dy: float, cfl: float = 0.5) -> float:
        """A stable explicit time step for the default integrator."""
        raise NotImplementedError

    def energy(self, fields: np.ndarray, dx: float, dy: float) -> float:
        """A monitored scalar (energy-like diagnostic) of ``fields``."""
        raise NotImplementedError


@dataclass(frozen=True)
class Background:
    """Constant background state the equations are linearized around.

    Defaults follow Sec. IV-A of the paper: fluid at rest with
    ``p_c = 1 bar`` and ``rho_c = 1 kg/m^3``.  Pressure is expressed
    *in bar* (the paper's unit), i.e. ``p_c = 1.0``; this keeps all four
    perturbation channels within a few orders of magnitude of unity,
    which is the regime the paper's raw-field MAPE training operates
    in.  Use :meth:`si_air` for strict SI values (``p_c = 1e5 Pa``).
    """

    rho_c: float = 1.0
    p_c: float = 1.0
    u_c: float = 0.0
    v_c: float = 0.0
    gamma: float = 1.4

    @classmethod
    def si_air(cls, **overrides) -> "Background":
        """The same background in SI units (``p_c = 1e5 Pa``)."""
        return cls(**{"p_c": 1.0e5, **overrides})

    def __post_init__(self) -> None:
        if self.rho_c <= 0 or self.p_c <= 0:
            raise SolverError("background density and pressure must be positive")
        if self.gamma <= 1.0:
            raise SolverError(f"gamma must exceed 1, got {self.gamma}")

    @property
    def sound_speed(self) -> float:
        """``c = sqrt(gamma p_c / rho_c)``."""
        return math.sqrt(self.gamma * self.p_c / self.rho_c)

    @property
    def max_wave_speed(self) -> float:
        """Fastest characteristic speed (advection + sound)."""
        return math.hypot(self.u_c, self.v_c) + self.sound_speed


class LinearizedEuler(Equation):
    """Right-hand side of the linearized Euler system on a uniform grid.

    Parameters
    ----------
    background:
        The constant base flow.
    dissipation:
        Coefficient ``nu`` of an artificial dissipation term
        ``nu * c * min(dx, dy) * Laplacian(q)`` added to each equation,
        with the second-order 5-point Laplacian (so the term vanishes
        like ``dx`` under refinement).  A small amount (default 0.02)
        suppresses the odd-even decoupling of central differences
        without visibly smearing the pulse, playing the role of the DG
        scheme's inherent dissipation in Ateles.  Set to 0 for the pure
        central scheme.
    """

    channels = CHANNELS

    def __init__(
        self,
        background: Background | None = None,
        dissipation: float = 0.02,
        order: int = 2,
    ) -> None:
        if dissipation < 0:
            raise SolverError(f"dissipation must be >= 0, got {dissipation}")
        if order not in (2, 4):
            raise SolverError(f"stencil order must be 2 or 4, got {order}")
        self.background = background if background is not None else Background()
        self.dissipation = float(dissipation)
        self.order = int(order)

    def rhs_into(
        self, fields: np.ndarray, dx: float, dy: float, out: np.ndarray, scratch: np.ndarray
    ) -> None:
        bg, order = self.background, self.order
        p, _, u, v = fields
        work, spare = scratch  # spare: only the order-4 stencils use it
        div_u = ddx(u, dx, order, out=out[0], scratch=spare)
        np.add(div_u, ddy(v, dy, order, out=work[0], scratch=spare), out=div_u)
        np.multiply(div_u, -bg.rho_c, out=out[1])
        np.multiply(div_u, -bg.gamma * bg.p_c, out=out[0])
        ddx(p, dx, order, out=out[2], scratch=spare)
        ddy(p, dy, order, out=out[3], scratch=spare)
        grad_p = out[2:]
        np.divide(np.negative(grad_p, out=grad_p), bg.rho_c, out=grad_p)

        # Background advection of every perturbation field.
        for speed, derivative, h in ((bg.u_c, ddx, dx), (bg.v_c, ddy, dy)):
            if speed:
                gradient = derivative(fields, h, order, out=work, scratch=spare)
                np.subtract(out, np.multiply(gradient, speed, out=gradient), out=out)

        if self.dissipation:
            nu = self.dissipation * self.background.sound_speed * min(dx, dy)
            smoothing = laplacian(fields, dx, dy, out=work, scratch=spare)
            np.add(out, np.multiply(smoothing, nu, out=smoothing), out=out)

    def stable_dt(self, dx: float, dy: float, cfl: float = 0.5) -> float:
        """Time step satisfying the CFL condition for the RK4/central
        scheme (``cfl`` ≲ 0.7 is safe)."""
        if cfl <= 0:
            raise SolverError(f"cfl must be positive, got {cfl}")
        speed = self.background.max_wave_speed
        return cfl / (speed * math.sqrt(1.0 / dx**2 + 1.0 / dy**2))

    def acoustic_energy(self, state: EulerState, dx: float, dy: float) -> float:
        """Acoustic energy  E = ∫ ρc/2 |u'|² + p'²/(2 ρc c²) dV.

        For the at-rest background with reflecting or periodic walls the
        semi-discrete central scheme conserves E exactly up to the
        artificial dissipation; for outflow boundaries E decays as the
        pulse leaves — both facts are exploited by the solver tests.
        """
        bg = self.background
        c2 = bg.sound_speed**2
        kinetic = 0.5 * bg.rho_c * (state.u**2 + state.v**2)
        potential = state.p**2 / (2.0 * bg.rho_c * c2)
        return float(np.sum(kinetic + potential) * dx * dy)

    # -- array-level Equation interface (scenario registry) ------------

    def energy(self, fields: np.ndarray, dx: float, dy: float) -> float:
        state = EulerState(p=fields[0], rho=fields[1], u=fields[2], v=fields[3])
        return self.acoustic_energy(state, dx, dy)


class Diffusion2D(Equation):
    """Scalar heat equation  ∂t u = ν Δu  on a uniform grid.

    The simplest genuinely different physics for the scenario registry:
    parabolic (diffusive dt ~ dx² instead of the hyperbolic dt ~ dx),
    single channel, monotone decay of the L2 norm.
    """

    channels = ("u",)

    def __init__(self, nu: float = 0.1) -> None:
        if nu <= 0:
            raise SolverError(f"diffusivity nu must be positive, got {nu}")
        self.nu = float(nu)

    def rhs_into(self, fields, dx, dy, out, scratch) -> None:
        np.multiply(laplacian(fields, dx, dy, out=out, scratch=scratch), self.nu, out=out)

    def stable_dt(self, dx: float, dy: float, cfl: float = 0.5) -> float:
        """Explicit diffusion limit  dt ≤ cfl / (2 ν (1/dx² + 1/dy²))."""
        if cfl <= 0:
            raise SolverError(f"cfl must be positive, got {cfl}")
        return cfl * 0.5 / (self.nu * (1.0 / dx**2 + 1.0 / dy**2))

    def energy(self, fields: np.ndarray, dx: float, dy: float) -> float:
        """Thermal L2 energy  ∫ u² dV — strictly decaying under diffusion."""
        return float(np.sum(fields[0] ** 2) * dx * dy)


class AllenCahn(Equation):
    """Allen-Cahn phase-field equation  ∂t u = ε Δu + u − u³.

    Nonlinear reaction-diffusion dynamics: the cubic reaction drives u
    toward the wells ±1 while ε Δu smooths the interfaces between
    phases.  Besides the generic RK4 path (``rhs_into``), the equation
    ships its own stable stepper, :meth:`strang_step`: Strang splitting
    with the *exact* closed-form solution of the stiff cubic reaction

    .. math:: u(t) = u_0 / \\sqrt{u_0^2 + (1 - u_0^2)\\,e^{-2t}}

    so only the (non-stiff) diffusion half constrains the time step and
    |u| ≤ 1 is preserved unconditionally.
    """

    channels = ("u",)

    def __init__(self, epsilon: float = 0.01) -> None:
        if epsilon <= 0:
            raise SolverError(f"interface coefficient epsilon must be positive, got {epsilon}")
        self.epsilon = float(epsilon)

    def rhs_into(self, fields, dx, dy, out, scratch) -> None:
        np.multiply(laplacian(fields, dx, dy, out=out, scratch=scratch), self.epsilon, out=out)
        np.add(out, fields, out=out)
        np.subtract(out, np.power(fields, 3, out=scratch[0]), out=out)

    def stable_dt(self, dx: float, dy: float, cfl: float = 0.5) -> float:
        """Diffusion limit, additionally capped at a quarter of the O(1)
        reaction time scale so the phase dynamics stay resolved."""
        if cfl <= 0:
            raise SolverError(f"cfl must be positive, got {cfl}")
        diffusive = 0.5 / (self.epsilon * (1.0 / dx**2 + 1.0 / dy**2))
        return cfl * min(diffusive, 0.25)

    def _react_exact(self, u: np.ndarray, t: float) -> np.ndarray:
        """Exact solution of  du/dt = u − u³  after time ``t`` (the
        logistic flow of w = u²; stable for every u and t > 0)."""
        decay = math.exp(-2.0 * t)
        return u / np.sqrt(u**2 + (1.0 - u**2) * decay)

    def strang_step(self, fields: np.ndarray, dx: float, dy: float, dt: float) -> np.ndarray:
        """One Strang-split step: exact half reaction, explicit full
        diffusion, exact half reaction."""
        u = self._react_exact(fields[0], 0.5 * dt)
        u = u + dt * self.epsilon * laplacian(u, dx, dy)
        u = self._react_exact(u, 0.5 * dt)
        return u[None]

    def energy(self, fields: np.ndarray, dx: float, dy: float) -> float:
        """Ginzburg-Landau free energy  ∫ ε/2 |∇u|² + (1−u²)²/4 dV —
        a Lyapunov functional of the Allen-Cahn flow."""
        u = fields[0]
        grad2 = ddx(u, dx) ** 2 + ddy(u, dy) ** 2
        well = 0.25 * (1.0 - u**2) ** 2
        return float(np.sum(0.5 * self.epsilon * grad2 + well) * dx * dy)


def _make_linearized_euler(
    dissipation: float = 0.02, order: int = 2, **background: float
) -> LinearizedEuler:
    bg = Background(**background) if background else None
    return LinearizedEuler(background=bg, dissipation=dissipation, order=order)


_EQUATIONS: dict[str, type | object] = {
    "linearized_euler": _make_linearized_euler,
    "diffusion": Diffusion2D,
    "allen_cahn": AllenCahn,
}


def get_equation(name: str, **params) -> Equation:
    """Instantiate a registered equation by name.

    ``params`` are forwarded to the equation constructor; for
    ``linearized_euler`` the background fields (``p_c``, ``rho_c``,
    ``u_c``, ``v_c``, ``gamma``) may be passed flat next to
    ``dissipation``/``order``.
    """
    try:
        factory = _EQUATIONS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown equation {name!r}; choose from {sorted(_EQUATIONS)}"
        ) from None
    try:
        return factory(**params)
    except TypeError as exc:
        raise ConfigurationError(f"bad parameters for equation {name!r}: {exc}") from None


def available_equations() -> tuple[str, ...]:
    return tuple(sorted(_EQUATIONS))
