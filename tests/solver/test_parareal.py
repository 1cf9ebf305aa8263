"""Parallel-in-time Parareal driver: convergence, the slice window, telemetry.

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
import threading
import time

import numpy as np
import pytest

from repro import mpi
from repro.core import EnsembleStepper, build_paper_cnn
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


def model_stepper(num_channels):
    """A single full-domain random CNN as G."""
    return EnsembleStepper([random_model(num_channels)])


class FineAsCoarse:
    """G == F when one coarse step spans several fine steps (with one
    fine step per coarse step the simulation itself is G)."""

    def __init__(self, simulation, fine_steps_per_coarse):
        self.simulation = simulation
        self.fine_steps_per_coarse = fine_steps_per_coarse

    def advance(self, state, num_steps=1, out=None):
        return self.simulation.advance(
            state, num_steps * self.fine_steps_per_coarse, out=out
        )


class IdentityStepper:
    """G(U) = U: the roughest coarse propagator there is."""

    def advance(self, state, num_steps=1, out=None):
        if out is None:
            return np.array(state, dtype=float)
        np.copyto(out, state)
        return out


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
            fine_end = simulation.advance(previous[n], config.fine_steps_per_slice)
            delta = max(delta, _relative_delta(states[n], previous[n]))
            coarse_new = coarse.advance(states[n], config.coarse_steps)
            states[n + 1] = fine_end + (coarse_new - coarse_end[n])
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
        operator = model_stepper(num_channels)
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

    @pytest.mark.parametrize("fine_steps_per_coarse", [1, 2])
    def test_exact_coarse_operator_converges_in_one_sweep(self, fine_steps_per_coarse):
        simulation, initial, _ = scenario_setup("allen-cahn")
        config = PararealConfig(
            slices=6, tolerance=1e-6, fine_steps_per_coarse=fine_steps_per_coarse
        )
        # G = F: the simulation goes in as ``coarse`` as it is.
        operator = (
            simulation
            if fine_steps_per_coarse == 1
            else FineAsCoarse(simulation, fine_steps_per_coarse)
        )
        result = PararealDriver(simulation, operator, config).solve(initial)
        assert result.converged
        assert result.iterations == 1

    def test_ensemble_coarse_operator_converges(self):
        simulation, initial, num_channels = scenario_setup("euler-gaussian")
        models = [random_model(num_channels, seed=r) for r in range(4)]
        operator = EnsembleStepper(models, BlockDecomposition((GRID, GRID), (2, 2)))
        config = PararealConfig(slices=4, tolerance=1e-9, fine_steps_per_coarse=2)
        result = PararealDriver(simulation, operator, config).solve(initial)
        reference = serial_fine(simulation, initial, config)
        assert result.converged
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(result.states - reference)) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "coarse,coarse_steps,fine_steps_per_coarse",
        [("identity", 8, 5), (2.0, 8, 4), (2.5, 40, 5)],
        ids=["identity", "solver-cfl-2.0", "solver-cfl-2.5"],
    )
    def test_exact_after_slices_sweeps(self, coarse, coarse_steps, fine_steps_per_coarse):
        """The exactness property, whatever G is: after ``slices`` sweeps
        every slice state is the serial fine one.  G is the identity, or
        the solver at a coarser CFL — stable at 2.0, unstable at 2.5,
        where 40 steps grow |G| to ~1e4 and a correction that sums G
        before F rounds F away (error 1e-11, ``converged`` all the
        same)."""
        spec = get_scenario("euler-gaussian")
        grid = build_grid(spec, 16)
        simulation = build_simulation(spec, grid)
        initial = build_initial_state(spec, grid).to_array()
        operator = IdentityStepper() if coarse == "identity" else build_simulation(
            spec, grid, cfl=coarse
        )
        config = PararealConfig(
            slices=4, tolerance=1e-14, coarse_steps=coarse_steps,
            fine_steps_per_coarse=fine_steps_per_coarse,
        )  # fmt: skip
        result = PararealDriver(simulation, operator, config).solve(initial)
        reference = serial_fine(simulation, initial, config)
        assert result.iterations <= config.slices
        assert _relative_delta(result.states, reference) <= 1e-12

    def test_work_accounting(self):
        simulation, initial, num_channels = scenario_setup("allen-cahn")
        operator = model_stepper(num_channels)
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
        operator = model_stepper(num_channels)
        driver = PararealDriver(simulation, operator, PararealConfig(slices=2))
        with pytest.raises(ConfigurationError, match="does not match"):
            driver.solve(np.zeros((num_channels, GRID, GRID + 1)))

    @pytest.mark.parametrize(
        "scenario,coarse", [("allen-cahn", "cnn"), ("euler-gaussian", "solver")]
    )
    def test_backends_agree_bitwise(self, scenario, coarse):
        """A random CNN as G, or the Euler solver as both G and F (its
        rank threads then share one solver's workspace binding)."""
        simulation, initial, num_channels = scenario_setup(scenario)
        operator = model_stepper(num_channels) if coarse == "cnn" else simulation
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
                operator = EnsembleStepper(models, BlockDecomposition((GRID, GRID), (1, 2)))
            else:
                operator = model_stepper(num_channels)
            expected = reference_parareal(simulation, operator, config, initial)
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
            calls = threading.local()  # rank threads share the operator

            def advance(self, state, num_steps=1, out=None):
                self.calls.count = getattr(self.calls, "count", 0) + 1
                if self.calls.count == 2 and np.array_equal(state, slice_one_start):
                    raise RuntimeError("slice 1 failed in sweep 1")
                return super().advance(state, num_steps, out=out)

        # G == F, so U_1^1 is the fine solution after one slice: only
        # rank 1 ever sees it as the input of its second coarse call.
        slice_one_start = simulation.advance(initial, config.fine_steps_per_slice)
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
        operator = model_stepper(num_channels)
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
        operator = model_stepper(num_channels)
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
        operator = model_stepper(num_channels)
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
