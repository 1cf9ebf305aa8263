"""2-D linearized-Euler finite-difference solver (the *Ateles* stand-in).

Quick start::

    from repro import solver

    grid = solver.UniformGrid2D.square(128)
    sim = solver.Simulation(grid)
    initial = solver.paper_initial_condition(grid)
    result = sim.run(initial, num_snapshots=100)
    result.snapshots.shape  # (100, 4, 128, 128)
"""

from .boundary import (
    SIDES,
    apply_field_dirichlet,
    apply_field_neumann,
    apply_field_periodic,
    apply_outflow,
    apply_outflow_side,
    apply_periodic,
    apply_reflecting,
    apply_reflecting_side,
    get_boundary_condition,
    get_field_boundary,
    local_boundary,
    make_sponge,
)
from .derivatives import ddx, ddy, divergence, laplacian
from .equations import (
    AllenCahn,
    Background,
    Diffusion2D,
    Equation,
    LinearizedEuler,
    available_equations,
    get_equation,
)
from .grid import UniformGrid2D
from .initial_conditions import (
    gaussian_pulse,
    multiple_pulses,
    paper_initial_condition,
    plane_wave,
    random_phase_field,
    scalar_blobs,
    scalar_gaussian,
)
from .parareal import (
    PararealConfig,
    PararealDriver,
    PararealResult,
    serial_fine,
)
from .simulation import (
    FieldSimulation,
    Simulation,
    SimulationResult,
    SteppedSimulation,
    Stepper,
)
from .state import CHANNELS, NUM_CHANNELS, EulerState
from .time_integrators import euler_step, get_integrator, heun_step, rk4_step

__all__ = [
    "UniformGrid2D",
    "EulerState",
    "CHANNELS",
    "NUM_CHANNELS",
    "Background",
    "Equation",
    "LinearizedEuler",
    "Diffusion2D",
    "AllenCahn",
    "get_equation",
    "available_equations",
    "Simulation",
    "FieldSimulation",
    "SimulationResult",
    "SteppedSimulation",
    "Stepper",
    "PararealConfig",
    "PararealDriver",
    "PararealResult",
    "serial_fine",
    "gaussian_pulse",
    "paper_initial_condition",
    "plane_wave",
    "multiple_pulses",
    "scalar_gaussian",
    "scalar_blobs",
    "random_phase_field",
    "SIDES",
    "apply_outflow",
    "apply_outflow_side",
    "apply_periodic",
    "apply_reflecting",
    "apply_reflecting_side",
    "apply_field_periodic",
    "apply_field_neumann",
    "apply_field_dirichlet",
    "get_boundary_condition",
    "get_field_boundary",
    "local_boundary",
    "make_sponge",
    "ddx",
    "ddy",
    "divergence",
    "laplacian",
    "euler_step",
    "heun_step",
    "rk4_step",
    "get_integrator",
]
