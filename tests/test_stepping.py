"""One contract for everything that advances a field.

``Stepper.advance(state, num_steps=1, out=None)``: the finite-difference
drivers of every registered scenario and the CNN ensemble (one
full-domain network being its one-block case) are checked against the
same rows — composition, ``out=``, an untouched input, the result dtype
and ``rollout``.
"""

import sys
from functools import partial

import numpy as np
import pytest

from repro import mpi
from repro.core import CNNConfig, EnsembleStepper, SubdomainCNN, rollout
from repro.domain import BlockDecomposition
from repro.exceptions import ConfigurationError
from repro.scenarios import (
    available_scenarios,
    build_grid,
    build_initial_state,
    build_simulation,
    get_scenario,
)
from repro.solver import EulerState
from repro.tensor import Tensor, precision

GRID = 16


def simulation_case(scenario):
    spec = get_scenario(scenario)
    grid = build_grid(spec, GRID)
    initial = build_initial_state(spec, grid)
    if hasattr(initial, "to_array"):
        initial = initial.to_array()
    return build_simulation(spec, grid), np.asarray(initial, dtype=float)


def ensemble_case(pgrid, mode, fill="zero"):
    state = np.random.default_rng(5).standard_normal((4, GRID, GRID))
    with precision(mode):
        models = [
            SubdomainCNN(CNNConfig(channels=(4, 6, 4), kernel_size=3), rng=np.random.default_rng(r))
            for r in range(pgrid[0] * pgrid[1])
        ]
    if pgrid == (1, 1):
        return EnsembleStepper(models), state  # builds its own 1 x 1 decomposition
    return EnsembleStepper(models, BlockDecomposition((GRID, GRID), pgrid), fill), state


# Every registered scenario's driver is a case; the two first cases
# keep the ids they were introduced under.
SIMULATION_IDS = {"euler-gaussian": "simulation-euler", "allen-cahn": "field-simulation-allen-cahn"}
SCENARIO_CASES = {
    SIMULATION_IDS.get(name, f"simulation-{name}"): (partial(simulation_case, name), "float64")
    for name in available_scenarios()
}
CASES = {
    **SCENARIO_CASES,
    "one-model-float64": (lambda: ensemble_case((1, 1), "float64"), "float64"),
    "one-model-float32": (lambda: ensemble_case((1, 1), "float32"), "float32"),
    "ensemble-2x2-float64": (lambda: ensemble_case((2, 2), "float64"), "float64"),
    "ensemble-2x2-float32": (lambda: ensemble_case((2, 2), "float32"), "float32"),
    "ensemble-2x1-edge-float64": (lambda: ensemble_case((2, 1), "float64", "edge"), "float64"),
}


@pytest.fixture(params=CASES, ids=list(CASES))
def case(request):
    build, parameter_dtype = CASES[request.param]
    stepper, state = build()
    return stepper, state, np.dtype(parameter_dtype)


class TestStepperContract:
    def test_n_steps_equal_n_chained_single_steps(self, case):
        stepper, state, _ = case
        chained = state
        for _ in range(3):
            chained = stepper.advance(chained, 1)
        assert np.array_equal(stepper.advance(state, 3), chained)
        assert np.array_equal(stepper.advance(stepper.advance(state, 2)), chained)

    @pytest.mark.parametrize("num_steps", [1, 2, 3])
    def test_out_receives_the_result_and_is_returned(self, case, num_steps):
        stepper, state, _ = case
        expected = stepper.advance(state, num_steps)
        buffer = np.full(expected.shape, np.nan, expected.dtype)
        assert stepper.advance(state, num_steps, out=buffer) is buffer
        assert np.array_equal(buffer, expected)
        # a window of a larger array, as rollout and parareal pass it
        frames = np.full((2,) + expected.shape, np.nan, expected.dtype)
        assert np.shares_memory(stepper.advance(state, num_steps, out=frames[1]), frames)
        assert np.array_equal(frames[1], expected)

    def test_state_is_never_written(self, case):
        stepper, state, _ = case
        before = state.copy()
        stepper.advance(state, 3)
        stepper.advance(state, 2, out=np.empty_like(state))
        assert np.array_equal(state, before)

    @pytest.mark.parametrize("state_dtype", ["float64", "float32"])
    def test_result_dtype_is_state_promoted_by_parameters(self, case, state_dtype):
        """A float64 field through a float32 model stays float64."""
        stepper, state, parameter_dtype = case
        state = state.astype(state_dtype)
        for num_steps in (1, 2):
            result = stepper.advance(state, num_steps)
            assert result.dtype == np.result_type(state.dtype, parameter_dtype)

    def test_rollout_frames_are_the_advances(self, case):
        stepper, state, _ = case
        result = rollout(stepper, state, 3)
        assert result.trajectory.shape == (4,) + state.shape
        assert result.num_steps == 3
        assert (result.messages_sent, result.bytes_sent) == (0, 0)
        assert result.trajectory.flags.writeable
        assert np.array_equal(result.trajectory[0], state)
        for k in (1, 2, 3):
            assert np.array_equal(result.trajectory[k], stepper.advance(state, k))

    def test_rollout_needs_a_step(self, case):
        stepper, state, _ = case
        with pytest.raises(ConfigurationError, match="num_steps"):
            rollout(stepper, state, 0)


class TestSimulationStates:
    """A simulation also steps its own state type; both views are one loop."""

    def test_euler_stack_matches_state_advance(self):
        simulation, initial = simulation_case("euler-gaussian")
        advanced = simulation.advance(EulerState.from_array(initial), 3)
        assert isinstance(advanced, EulerState)
        assert np.array_equal(simulation.advance(initial, 3), advanced.to_array())

    def test_run_records_what_advance_computes(self):
        simulation, initial = simulation_case("allen-cahn")
        result = simulation.run(initial, num_snapshots=3, steps_per_snapshot=2)
        assert np.array_equal(result.snapshots[1], simulation.advance(result.snapshots[0], 2))


class TestEnsembleStepper:
    def test_rejects_model_count_mismatch(self):
        models = [SubdomainCNN(CNNConfig(channels=(4, 4), kernel_size=3)) for _ in range(3)]
        with pytest.raises(ConfigurationError, match="3 models for 4"):
            EnsembleStepper(models, BlockDecomposition((GRID, GRID), (2, 2)))

    def test_one_model_pads_its_halo_with_zeros(self):
        model = SubdomainCNN(CNNConfig(), rng=np.random.default_rng(0))
        halo = model.input_halo
        state = np.random.default_rng(1).standard_normal((4, GRID, GRID))
        padded = np.pad(state, ((0, 0), (halo, halo), (halo, halo)))
        expected = model(Tensor(padded[None])).numpy()[0]
        assert np.array_equal(EnsembleStepper([model]).advance(state), expected)

    def test_one_model_edge_fill_replicates_the_walls(self):
        model = SubdomainCNN(CNNConfig(), rng=np.random.default_rng(0))
        halo = model.input_halo
        state = np.random.default_rng(1).standard_normal((4, GRID, GRID))
        padded = np.pad(state, ((0, 0), (halo, halo), (halo, halo)), mode="edge")
        expected = model(Tensor(padded[None])).numpy()[0]
        stepper = EnsembleStepper([model], fill="edge")
        assert np.array_equal(stepper.advance(state), expected)
        assert not np.array_equal(EnsembleStepper([model]).advance(state), expected)

    @pytest.mark.parametrize(
        "pgrid", [(1, 1), (2, 2), None], ids=["lazy-1x1", "2x2", "simulation"]
    )
    def test_threads_sharing_one_stepper_get_their_own_scratch(self, pgrid):
        """More rank threads than cores advance through one stepper (the
        1 x 1 case also builds its decomposition inside the race; the
        Euler simulation binds its stage buffers inside it)."""
        if pgrid is None:
            build, per_thread = partial(simulation_case, "euler-gaussian"), 1
        else:
            build, per_thread = partial(ensemble_case, pgrid, "float64"), pgrid[0] * pgrid[1]
        reference, state = build()
        expected = reference.advance(state, 3)
        stepper, _ = build()  # same weights; first called in a thread

        def scratch():
            if pgrid is None:
                return [stepper._workspace().stages]
            return [unit.plan for unit in stepper._units()]

        def program(comm):
            results = [stepper.advance(state, 3) for _ in range(5)]
            return all(np.array_equal(r, expected) for r in results), scratch()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            outputs = mpi.run_parallel(program, 5, backend="threads", timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert all(equal for equal, _ in outputs)
        buffers = [buffer for _, theirs in outputs for buffer in theirs]
        assert len({id(buffer) for buffer in buffers}) == 5 * per_thread  # none shared
