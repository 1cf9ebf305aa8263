"""Parallel-in-time Parareal driver: convergence, operators, stepping API.

The load-bearing pin is :class:`TestConvergence`: on both benchmark
scenarios (``euler-gaussian``: Euler states through ``Simulation``;
``allen-cahn``: field stacks through the Strang-split
``FieldSimulation``) and on both execution backends, the Parareal
iteration must reproduce the serial fine trajectory within tolerance —
even with an untrained (random) CNN as coarse propagator, because the
correction's fixed point is the fine solution and the exactness
property bounds the sweep count by the slice count.
"""

import gc
import time

import numpy as np
import pytest

from repro import mpi, solver
from repro.core import build_paper_cnn
from repro.domain.decomposition import BlockDecomposition
from repro.exceptions import ConfigurationError
from repro.scenarios import (
    build_grid,
    build_initial_state,
    build_simulation,
    channels,
    get_scenario,
    parareal_config,
)
from repro.solver.parareal import (
    CoarseOperator,
    EnsembleCoarseOperator,
    ModelCoarseOperator,
    PararealConfig,
    PararealDriver,
    _relative_delta,
    serial_fine,
)
from repro.tensor import precision

from ..conftest import shared_mappings

GRID = 24


def scenario_setup(name, seed=None):
    """(simulation, initial array, channel count) at smoke-test scale."""
    spec = get_scenario(name)
    grid = build_grid(spec, GRID)
    simulation = build_simulation(spec, grid)
    initial = build_initial_state(spec, grid, seed=seed)
    if hasattr(initial, "to_array"):
        initial = initial.to_array()
    return simulation, np.asarray(initial, dtype=float), len(channels(spec))


def random_model(num_channels, seed=0):
    return build_paper_cnn(
        "neighbor_first",
        rng=np.random.default_rng(seed),
        channels=(num_channels, 6, 16, 6, num_channels),
    )


class FineAsCoarse(CoarseOperator):
    """G == F: the Parareal iteration must then converge in one sweep."""

    def __init__(self, simulation, fine_steps_per_coarse):
        self.simulation = simulation
        self.fine_steps_per_coarse = fine_steps_per_coarse

    def spawn(self):
        return self

    def advance(self, state, num_steps):
        return self.simulation.advance_array(
            state, num_steps * self.fine_steps_per_coarse
        )


def reference_parareal(simulation, coarse, config, initial):
    """The recurrence the ranks run, as two nested loops (sweeps x
    slices) over the same operators: ``(states, iterations, converged,
    deltas)``.  ``states[n]`` is U_n of the current sweep."""
    slices = range(config.slices)
    states = np.empty((config.slices + 1,) + initial.shape)
    states[0] = initial
    coarse_end = []
    for n in slices:
        coarse_end.append(coarse.advance(states[n], config.coarse_steps))
        states[n + 1] = coarse_end[n]
    deltas = []
    for sweep in range(1, config.iteration_cap + 1):
        previous, states = states, states.copy()
        delta = 0.0
        for n in slices:
            fine_end = simulation.advance_array(previous[n], config.fine_steps_per_slice)
            delta = max(delta, _relative_delta(states[n], previous[n]))
            coarse_new = coarse.advance(states[n], config.coarse_steps)
            states[n + 1] = coarse_new + fine_end - coarse_end[n]
            coarse_end[n] = coarse_new
        deltas.append(delta)
        if delta <= config.tolerance:
            return states, sweep, True, deltas
    return states, config.iteration_cap, False, deltas


class TestPararealConfig:
    def test_defaults(self):
        config = PararealConfig()
        assert config.slices == 8
        assert config.fine_steps_per_slice == 1
        assert config.iteration_cap == 8

    def test_fine_steps_per_slice(self):
        config = PararealConfig(coarse_steps=3, fine_steps_per_coarse=5)
        assert config.fine_steps_per_slice == 15

    def test_max_iterations_overrides_cap(self):
        assert PararealConfig(slices=6, max_iterations=2).iteration_cap == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slices": 0},
            {"tolerance": 0.0},
            {"tolerance": -1e-3},
            {"coarse_steps": 0},
            {"fine_steps_per_coarse": 0},
            {"max_iterations": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            PararealConfig(**kwargs)

    def test_scenario_defaults(self):
        config = parareal_config("allen-cahn")
        spec = get_scenario("allen-cahn")
        assert config.slices == spec.parareal_slices
        assert config.tolerance == spec.parareal_tolerance
        # One coarse application spans the snapshot spacing the CNN
        # would be trained on.
        assert config.fine_steps_per_coarse == spec.steps_per_snapshot

    def test_scenario_overrides_win(self):
        config = parareal_config("allen-cahn", slices=3, tolerance=0.5)
        assert config.slices == 3
        assert config.tolerance == 0.5


class TestAdvanceArray:
    """The unified stepping surface shared by both simulation drivers."""

    def test_euler_advance_array_matches_state_advance(self):
        simulation, initial, _ = scenario_setup("euler-gaussian")
        state = solver.EulerState.from_array(initial)
        expected = simulation.advance(state, 3).to_array()
        got = simulation.advance_array(initial, 3)
        assert np.array_equal(got, expected)

    def test_field_advance_array_matches_advance(self):
        simulation, initial, _ = scenario_setup("allen-cahn")
        expected = simulation.advance(initial.copy(), 4)
        got = simulation.advance_array(initial, 4)
        assert np.array_equal(got, expected)

    def test_advance_composes(self):
        simulation, initial, _ = scenario_setup("allen-cahn")
        two_then_one = simulation.advance_array(
            simulation.advance_array(initial, 2), 1
        )
        assert np.array_equal(simulation.advance_array(initial, 3), two_then_one)

    def test_run_still_matches_advance_array(self):
        # run() records what advance_array computes: one loop, two views.
        simulation, initial, _ = scenario_setup("allen-cahn")
        result = simulation.run(initial, num_snapshots=3, steps_per_snapshot=2)
        prepared = result.snapshots[0]
        assert np.array_equal(
            result.snapshots[1], simulation.advance_array(prepared, 2)
        )


class TestCoarseOperators:
    def test_model_operator_plan_matches_module_forward(self):
        simulation, initial, num_channels = scenario_setup("euler-gaussian")
        model = random_model(num_channels)
        with_plan = ModelCoarseOperator(model, use_plan=True)
        without_plan = ModelCoarseOperator(model, use_plan=False)
        np.testing.assert_allclose(
            with_plan.advance(initial, 2),
            without_plan.advance(initial, 2),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_ensemble_matches_parallel_predictor_step(self):
        from repro.core import ParallelPredictor

        _, initial, num_channels = scenario_setup("euler-gaussian")
        models = [random_model(num_channels, seed=r) for r in range(4)]
        decomposition = BlockDecomposition((GRID, GRID), (2, 2))
        operator = EnsembleCoarseOperator(models, decomposition)
        predictor = ParallelPredictor(models, decomposition)
        np.testing.assert_allclose(
            operator.advance(initial, 1),
            predictor.predict_step(initial),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_ensemble_rejects_model_count_mismatch(self):
        _, _, num_channels = scenario_setup("euler-gaussian")
        models = [random_model(num_channels, seed=r) for r in range(3)]
        with pytest.raises(ConfigurationError, match="3 models for 4"):
            EnsembleCoarseOperator(models, BlockDecomposition((GRID, GRID), (2, 2)))

    def test_spawn_returns_fresh_instance(self):
        _, _, num_channels = scenario_setup("euler-gaussian")
        operator = ModelCoarseOperator(random_model(num_channels))
        spawned = operator.spawn()
        assert spawned is not operator
        assert spawned.model is operator.model


class TestConvergence:
    """The acceptance pin: Parareal == serial fine, both scenarios x
    both backends, with an untrained CNN as coarse propagator."""

    @pytest.mark.parametrize("scenario", ["euler-gaussian", "allen-cahn"])
    @pytest.mark.parametrize(
        "execution,slices",
        [("threads", 6), ("processes", 4)],
        ids=["threads", "processes"],
    )
    def test_matches_serial_fine(self, scenario, execution, slices):
        simulation, initial, num_channels = scenario_setup(scenario)
        operator = ModelCoarseOperator(random_model(num_channels))
        config = parareal_config(
            scenario, slices=slices, tolerance=1e-9, fine_steps_per_coarse=2
        )
        driver = PararealDriver(simulation, operator, config)
        result = driver.solve(initial, execution=execution)
        reference = serial_fine(simulation, initial, config)

        assert result.converged
        assert result.iterations <= config.slices
        assert result.states.shape == (slices + 1, num_channels, GRID, GRID)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(result.states - reference)) <= 1e-12 * scale

    def test_exact_coarse_operator_converges_in_one_sweep(self):
        simulation, initial, _ = scenario_setup("allen-cahn")
        config = PararealConfig(slices=6, tolerance=1e-6, fine_steps_per_coarse=2)
        operator = FineAsCoarse(simulation, config.fine_steps_per_coarse)
        result = PararealDriver(simulation, operator, config).solve(initial)
        assert result.converged
        assert result.iterations == 1

    def test_ensemble_coarse_operator_converges(self):
        simulation, initial, num_channels = scenario_setup("euler-gaussian")
        models = [random_model(num_channels, seed=r) for r in range(4)]
        operator = EnsembleCoarseOperator(
            models, BlockDecomposition((GRID, GRID), (2, 2))
        )
        config = PararealConfig(slices=4, tolerance=1e-9, fine_steps_per_coarse=2)
        result = PararealDriver(simulation, operator, config).solve(initial)
        reference = serial_fine(simulation, initial, config)
        assert result.converged
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(result.states - reference)) <= 1e-12 * scale

    def test_work_accounting(self):
        simulation, initial, num_channels = scenario_setup("allen-cahn")
        operator = ModelCoarseOperator(random_model(num_channels))
        config = PararealConfig(
            slices=4, tolerance=1e-9, coarse_steps=2, fine_steps_per_coarse=3
        )
        result = PararealDriver(simulation, operator, config).solve(initial)
        sweeps = result.iterations
        # Sweep 0 runs one coarse slice per rank; each correction sweep
        # adds one coarse and one fine slice per rank.
        assert result.coarse_steps_applied == 4 * config.coarse_steps * (sweeps + 1)
        assert result.fine_steps_applied == 4 * config.fine_steps_per_slice * sweeps
        assert len(result.deltas) == sweeps
        assert result.dt == simulation.dt
        assert result.num_slices == 4

    def test_initial_shape_validated(self):
        simulation, _, num_channels = scenario_setup("allen-cahn")
        operator = ModelCoarseOperator(random_model(num_channels))
        driver = PararealDriver(simulation, operator, PararealConfig(slices=2))
        with pytest.raises(ConfigurationError, match="does not match"):
            driver.solve(np.zeros((num_channels, GRID, GRID + 1)))

    def test_backends_agree_bitwise(self):
        simulation, initial, num_channels = scenario_setup("allen-cahn")
        operator = ModelCoarseOperator(random_model(num_channels))
        config = PararealConfig(slices=4, tolerance=1e-9, fine_steps_per_coarse=2)
        driver = PararealDriver(simulation, operator, config)
        threaded = driver.solve(initial, execution="threads")
        forked = driver.solve(initial, execution="processes")
        assert np.array_equal(threaded.states, forked.states)
        assert threaded.iterations == forked.iterations
        assert threaded.deltas == forked.deltas


class TestSliceWindow:
    """The slice-boundary iterates live in one parent-allocated window;
    ranks hand them over with a post/wait chain and return scalars."""

    @pytest.mark.parametrize("execution", ["threads", "processes"])
    @pytest.mark.parametrize("mode", ["float64", "float32"])
    @pytest.mark.parametrize("ensemble", [False, True], ids=["model", "ensemble"])
    @pytest.mark.parametrize(
        "tolerance,max_iterations,iterations,converged",
        [(10.0, None, 1, True), (1e-12, 2, 2, False)],
        ids=["converged-early", "hit-the-cap"],
    )
    def test_equals_rank_free_reference(
        self, tolerance, max_iterations, iterations, converged, ensemble, mode, execution
    ):
        simulation, initial, num_channels = scenario_setup("euler-gaussian")
        config = PararealConfig(
            slices=4,
            tolerance=tolerance,
            fine_steps_per_coarse=2,
            max_iterations=max_iterations,
        )
        with precision(mode):
            if ensemble:
                models = [random_model(num_channels, seed=r) for r in range(2)]
                operator = EnsembleCoarseOperator(
                    models, BlockDecomposition((GRID, GRID), (1, 2))
                )
            else:
                operator = ModelCoarseOperator(random_model(num_channels))
            expected = reference_parareal(simulation, operator.spawn(), config, initial)
            result = PararealDriver(simulation, operator, config).solve(initial, execution)
        assert (result.iterations, result.converged) == (iterations, converged)
        assert result.states.dtype == np.float64
        assert np.array_equal(result.states, expected[0])
        assert (result.iterations, result.converged, result.deltas) == expected[1:]

    @pytest.mark.parametrize("execution", ["threads", "processes"])
    def test_rank_failing_in_sweep_one_is_the_error_its_successor_wakes_to(
        self, execution
    ):
        """Rank 1 raises before writing U_2^1 while rank 2 is blocked in
        the chain wait for it."""
        simulation, initial, _ = scenario_setup("allen-cahn")
        config = PararealConfig(slices=3, tolerance=1e-12, fine_steps_per_coarse=2)

        class FailsOnSecondCall(FineAsCoarse):
            calls = 0

            def spawn(self):  # per-rank call count, on threads too
                return FailsOnSecondCall(self.simulation, self.fine_steps_per_coarse)

            def advance(self, state, num_steps):
                self.calls += 1
                if self.calls == 2 and np.array_equal(state, slice_one_start):
                    raise RuntimeError("slice 1 failed in sweep 1")
                return super().advance(state, num_steps)

        # G == F, so U_1^1 is the fine solution after one slice: only
        # rank 1 ever sees it as the input of its second coarse call.
        slice_one_start = simulation.advance_array(initial, config.fine_steps_per_slice)
        operator = FailsOnSecondCall(simulation, config.fine_steps_per_coarse)
        gc.collect()
        mappings = shared_mappings()
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="slice 1 failed in sweep 1"):
            PararealDriver(simulation, operator, config).solve(initial, execution)
        assert time.monotonic() - start < 15.0
        gc.collect()  # the traceback's frames hold the window
        assert shared_mappings() == mappings

    @pytest.mark.parametrize("execution", ["threads", "processes"])
    def test_ranks_return_no_arrays(self, execution, monkeypatch):
        returned = []
        run_parallel = mpi.run_parallel

        def recording(*args, **kwargs):
            returned.extend(run_parallel(*args, **kwargs))
            return returned

        monkeypatch.setattr(mpi, "run_parallel", recording)
        simulation, initial, num_channels = scenario_setup("allen-cahn")
        operator = ModelCoarseOperator(random_model(num_channels))
        config = PararealConfig(slices=3, tolerance=1e-9, fine_steps_per_coarse=2)
        result = PararealDriver(simulation, operator, config).solve(initial, execution)
        assert len(returned) == 3
        for iterations, converged, deltas, coarse_steps, fine_steps in returned:
            assert (iterations, converged, deltas) == (
                result.iterations, result.converged, result.deltas,
            )  # fmt: skip
            assert type(coarse_steps) is int and type(fine_steps) is int
            assert all(type(delta) is float for delta in deltas)


class TestObservability:
    def test_spans_recorded(self):
        from repro.obs import trace

        simulation, initial, num_channels = scenario_setup("allen-cahn")
        operator = ModelCoarseOperator(random_model(num_channels))
        config = PararealConfig(slices=2, tolerance=1e-9, fine_steps_per_coarse=2)
        trace.reset()
        with trace.tracing():
            PararealDriver(simulation, operator, config).solve(initial)
        names = {span.name for span in trace.spans()}
        assert {
            "parareal.solve",
            "parareal.coarse",
            "parareal.fine",
            "parareal.correct",
        } <= names

    @pytest.mark.parametrize("execution", ["threads", "processes"])
    def test_handoff_stall_is_a_wait_span_not_a_message(self, execution):
        """The blocked stretch of the hand-off fills the summary's
        ``wait_seconds`` column; no point-to-point message is left, only
        the per-sweep convergence allreduce."""
        from repro.obs import export, trace

        simulation, initial, num_channels = scenario_setup("allen-cahn")
        operator = ModelCoarseOperator(random_model(num_channels))
        config = PararealConfig(slices=2, tolerance=1e-9, fine_steps_per_coarse=2)
        trace.reset()
        with trace.tracing():
            result = PararealDriver(simulation, operator, config).solve(initial, execution)
        spans = trace.spans()
        waits = [span for span in spans if span.name == "parareal.wait"]
        assert {span.cat for span in waits} == {export.WAIT_CAT}
        assert sorted((span.args["slice"], span.args["sweep"]) for span in waits) == [
            (rank, sweep) for rank in range(2) for sweep in range(result.iterations + 1)
        ]
        assert not [span for span in spans if span.name in ("mpi.send", "mpi.recv")]
        row = export.summary(spans)[1]
        assert row["wait_seconds"] > 0.0
        assert (row["comm_messages"], row["comm_bytes"]) == (0, 0)
        assert row["comm_seconds"] > 0.0  # the convergence allreduce
