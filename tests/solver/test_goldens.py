"""Bit-exactness goldens pinning the paper's default scenario.

These hashes were captured from the pre-scenario-registry code (PR 6
tree).  The scenario-registry refactor must keep every one of them
byte-identical: the registry may *add* physics, but the paper's
baseline pipeline (Gaussian pulse, linearized Euler, outflow walls,
RK4, CFL 0.5) must not drift by a single ULP.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data.generation import generate_multi_pulse_dataset, generate_paper_dataset
from repro.scenarios import simulate
from repro.solver import (
    AllenCahn,
    Background,
    EulerState,
    FieldSimulation,
    LinearizedEuler,
    Simulation,
    UniformGrid2D,
    get_boundary_condition,
    paper_initial_condition,
    random_phase_field,
)
from repro.solver.parareal import PararealConfig, PararealDriver


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _random_state() -> EulerState:
    rng = np.random.default_rng(42)
    fields = [rng.standard_normal((9, 7)) for _ in range(4)]
    return EulerState(p=fields[0], rho=fields[1], u=fields[2], v=fields[3])


class TestPaperDatasetGolden:
    def test_paper_dataset_bit_exact(self):
        data = generate_paper_dataset(grid_size=24, num_snapshots=8, num_train=5)
        assert _sha(data.train.snapshots) == (
            "bd4295167449407e0e200a3d7e2fc40f49403edece08ab4b82b39dca30a1a374"
        )
        assert _sha(data.validation.snapshots) == (
            "bd5c48c39bf799d4d8f378cd6b67da976ce77875d04f8fbde4b823d49d0f7d6d"
        )
        assert data.dt == 0.025983230637704212

    def test_multi_pulse_dataset_bit_exact(self):
        data = generate_multi_pulse_dataset(
            grid_size=24, num_snapshots=8, num_train=5, num_pulses=2, seed=3
        )
        assert _sha(data.train.snapshots) == (
            "f7a87827126edb2de16cbd2db8bbd717616aaf402a494cd8db5f53a56644ac8e"
        )


class TestBoundaryGoldens:
    """The per-side decomposition of boundary.py must reproduce the
    original whole-domain application exactly, corners included."""

    def _check(self, name: str, expected: str):
        state = _random_state()
        get_boundary_condition(name)(state)
        assert _sha(state.to_array()) == expected, name

    def test_outflow(self):
        self._check(
            "outflow",
            "0b7bf4756ce56ad419ffe10fc4c0cfe25de4ccb766ad72d98c6e59a708a5836a",
        )

    def test_reflecting(self):
        self._check(
            "reflecting",
            "9191932840da0a75cc0c7142b93ee594d3c70f6b7615a69028f9486b587e771b",
        )

    def test_periodic(self):
        self._check(
            "periodic",
            "cf5ebf41bf0ea8ae00f8e1ceda37d718a6a703997f7c69cb56b5bdf56b5e9329",
        )

    def test_sponge(self):
        self._check(
            "sponge",
            "8402dbc99500723b444450b31daea0b940c68c6169a756095942d4f00bb4066c",
        )


# -- every other solver path -------------------------------------------
# Captured from the allocating step (EulerState arithmetic, 2-D strided
# stencils) before the solver moved to in-place stacked stages.  Each
# case hashes a whole run: snapshots and energies, or states and deltas.

GRID = 20


def _run_digest(result) -> str:
    return _sha(np.concatenate([result.snapshots.ravel(), result.energies]))


def _euler_run(**kwargs) -> str:
    """The paper pulse through a ``Simulation`` configured by ``kwargs``."""
    grid = UniformGrid2D.square(GRID, 1.0)
    equation = kwargs.pop("equations", LinearizedEuler())
    simulation = Simulation(grid, equation, **kwargs)
    initial = paper_initial_condition(grid, background=equation.background)
    return _run_digest(simulation.run(initial, num_snapshots=5, steps_per_snapshot=3))


def _field_rk4() -> str:
    grid = UniformGrid2D.square(GRID, 1.0)
    simulation = FieldSimulation(grid, AllenCahn(epsilon=0.01), integrator="rk4")
    initial = random_phase_field(grid, amplitude=0.5, smoothing=1, seed=2)
    return _run_digest(simulation.run(initial, num_snapshots=5, steps_per_snapshot=3))


def _parareal_solver_as_coarse() -> str:
    grid = UniformGrid2D.square(GRID, 1.0)
    simulation = Simulation(grid, LinearizedEuler())
    initial = paper_initial_condition(grid).to_array()
    config = PararealConfig(slices=3, coarse_steps=2, tolerance=1e-12, max_iterations=2)
    result = PararealDriver(simulation, simulation, config).solve(initial, execution="threads")
    return _sha(np.concatenate([result.states.ravel(), result.deltas]))


def _rhs_array(dtype: str, **kwargs) -> str:
    fields = np.random.default_rng(7).standard_normal((4, 11, 13)).astype(dtype)
    rhs = LinearizedEuler(**kwargs).rhs_array(fields, 0.1, 0.15)
    assert rhs.dtype == fields.dtype
    return _sha(rhs)


FLOW = Background(u_c=0.3, v_c=-0.2)

SOLVER_CASES = {
    **{
        f"simulate-{name}": lambda name=name: _run_digest(
            simulate(name, grid_size=GRID, num_snapshots=6, steps_per_snapshot=2)
        )
        for name in (
            "euler-off-center",
            "euler-reflecting",
            "euler-periodic",
            "euler-absorbing",
            "diffusion",
            "allen-cahn",
        )
    },
    "order-4": lambda: _euler_run(equations=LinearizedEuler(order=4)),
    "background-flow": lambda: _euler_run(equations=LinearizedEuler(background=FLOW)),
    "background-flow-order-4": lambda: _euler_run(
        equations=LinearizedEuler(background=FLOW, order=4)
    ),
    "heun": lambda: _euler_run(integrator="heun"),
    "euler": lambda: _euler_run(integrator="euler", cfl=0.1),
    "field-simulation-rk4": _field_rk4,
    "parareal-solver-as-coarse": _parareal_solver_as_coarse,
    "rhs-array-float64": lambda: _rhs_array("float64", background=FLOW, order=4),
    "rhs-array-float32": lambda: _rhs_array("float32", background=FLOW),
}

SOLVER_GOLDENS = {
    "simulate-euler-off-center": (
        "b3d5837ab716bf513492416202f023cbd86dc16a8124d2042c991ea729487c50"
    ),
    "simulate-euler-reflecting": (
        "c6564778595199e104d83723ffc43a1bc2059e2e40b212399fcb940d359bd7f8"
    ),
    "simulate-euler-periodic": (
        "8b694fd221dc5499011b11af79bdf9e418f9a89a04f92bec75ca2ce3177ed0b9"
    ),
    "simulate-euler-absorbing": (
        "c509b0d29d78dae28843bb615515fb7cd1ca2f1614d5a68b99d1eca55b426493"
    ),
    "simulate-diffusion": (
        "55d9e9be4802ea5f7b6189b9b5272248b2afa01edadea3f152e1154c7703e6fe"
    ),
    "simulate-allen-cahn": (
        "a62ccfb79c2a669dda82b7328719c73eb33542f7c24f840ed20b30149dfd9158"
    ),
    "order-4": (
        "bd0192dc291a46ba84a8d139418a0b2b74886f7490c265247999f77d2e3140b6"
    ),
    "background-flow": (
        "cb7bd952729a00d14ca8a90edac98a1f804500dad0673774e7e200975261c9e2"
    ),
    "background-flow-order-4": (
        "039912b3116fbd9e82d780c142e607165354f32d712d147a761d5d3696c09d46"
    ),
    "heun": (
        "ba3da02959268b0b4182e1b562f7e0f67f9a9e5cacf97aad85277b688e23224c"
    ),
    "euler": (
        "f60d5598fd69338cd506273534d107fde993f9dc3190fbb438549cdf8158d284"
    ),
    "field-simulation-rk4": (
        "4a21dc2b20998518b9c7e69c225accfe10b17a60f3d266eb3cdaa02a07e409aa"
    ),
    "parareal-solver-as-coarse": (
        "fa356ee0072c44b8df5986a21dbe2127c32ab7c6de466dc388e25793af7459a7"
    ),
    "rhs-array-float64": (
        "56f883d747f2f2ffc695342e363050f158a7ac11269a5f9a1a4d45cc71110693"
    ),
    "rhs-array-float32": (
        "1381dfcdb5513fc06a8ffef1b7ffac6da801e336eed1a5a654ebc0610b7fc4ce"
    ),
}


@pytest.mark.parametrize("case", list(SOLVER_CASES))
def test_solver_path_bit_exact(case):
    assert SOLVER_CASES[case]() == SOLVER_GOLDENS[case], case
