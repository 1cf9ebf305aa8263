"""Simulation-driver tests (the Ateles stand-in's system behaviour)."""

import tracemalloc

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.solver import (
    Background,
    EulerState,
    LinearizedEuler,
    Simulation,
    UniformGrid2D,
    paper_initial_condition,
    plane_wave,
)


class TestRunMechanics:
    def test_snapshot_shapes_and_times(self):
        grid = UniformGrid2D.square(32)
        sim = Simulation(grid)
        result = sim.run(paper_initial_condition(grid), num_snapshots=5, steps_per_snapshot=3)
        assert result.snapshots.shape == (5, 4, 32, 32)
        assert result.num_snapshots == 5
        assert np.allclose(result.times, np.arange(5) * 3 * sim.dt)

    def test_first_snapshot_is_initial_with_bc(self):
        grid = UniformGrid2D.square(32)
        sim = Simulation(grid)
        initial = paper_initial_condition(grid)
        result = sim.run(initial, num_snapshots=2)
        # Pressure BC zeroes the walls of the recorded initial state.
        assert np.all(result.snapshots[0, 0, 0, :] == 0.0)
        inner = result.snapshots[0, 0, 1:-1, 1:-1]
        assert np.allclose(inner, initial.p[1:-1, 1:-1])

    def test_advance_not_in_place(self):
        grid = UniformGrid2D.square(32)
        sim = Simulation(grid)
        initial = paper_initial_condition(grid)
        before = initial.p.copy()
        sim.advance(initial, 2)
        assert np.allclose(initial.p, before)

    def test_mismatched_state_raises(self):
        sim = Simulation(UniformGrid2D.square(32))
        with pytest.raises(SolverError):
            sim.run(EulerState.zeros((16, 16)), num_snapshots=2)

    def test_validation(self):
        sim = Simulation(UniformGrid2D.square(16))
        state = EulerState.zeros((16, 16))
        with pytest.raises(SolverError):
            sim.run(state, num_snapshots=0)
        with pytest.raises(SolverError):
            sim.run(state, num_snapshots=2, steps_per_snapshot=0)


class TestWarmStep:
    def test_warm_advance_allocates_no_field(self):
        """Once this thread's stage buffers are bound, RK4 steps the
        stack in place: five steps into ``out`` allocate less than one
        ``(4, 64, 64)`` field, whatever the boundary condition, stencil
        order or background flow."""
        field_bytes = 4 * 64 * 64 * 8
        grid = UniformGrid2D.square(64)
        flow = LinearizedEuler(Background(u_c=0.3, v_c=-0.2), order=4)
        configurations = [
            *({"boundary": name} for name in ("outflow", "reflecting", "periodic", "sponge")),
            {"equations": flow},
        ]
        for configuration in configurations:
            sim = Simulation(grid, **configuration)
            state = paper_initial_condition(grid).to_array()
            out = np.empty_like(state)
            sim.advance(state, 1, out=out)  # binds the workspace
            was_tracing = tracemalloc.is_tracing()
            if not was_tracing:
                tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                sim.advance(state, 5, out=out)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                if not was_tracing:
                    tracemalloc.stop()
            assert peak < field_bytes, (configuration, peak)


class TestPhysics:
    def test_pulse_radiates_symmetrically(self):
        """The centred pulse must stay 4-fold symmetric as it expands."""
        grid = UniformGrid2D.square(33)
        sim = Simulation(grid, boundary="outflow", cfl=0.4)
        result = sim.run(paper_initial_condition(grid), num_snapshots=10, steps_per_snapshot=2)
        p = result.snapshots[-1, 0]
        assert np.allclose(p, np.flipud(p), atol=1e-10)
        assert np.allclose(p, np.fliplr(p), atol=1e-10)
        assert np.allclose(p, p.T, atol=1e-10)

    def test_outflow_energy_non_increasing(self):
        """The paper's p'=0 wall is a pressure-release surface: it
        reflects the pulse (so energy decays only mildly, through the
        scheme dissipation) but must never grow."""
        grid = UniformGrid2D.square(48)
        sim = Simulation(grid, boundary="outflow", cfl=0.5)
        steps = int(2.5 / (1.18 * sim.dt))
        result = sim.run(
            paper_initial_condition(grid),
            num_snapshots=10,
            steps_per_snapshot=max(steps // 10, 1),
        )
        assert result.energies[-1] < result.energies[0]
        assert np.max(result.energies) < 1.1 * result.energies[0]

    def test_sponge_boundary_absorbs_pulse(self):
        """The sponge extension actually drains energy once the pulse
        reaches the boundary band."""
        grid = UniformGrid2D.square(48)
        sim = Simulation(grid, boundary="sponge", cfl=0.5)
        steps = int(2.5 / (1.18 * sim.dt))
        result = sim.run(
            paper_initial_condition(grid),
            num_snapshots=10,
            steps_per_snapshot=max(steps // 10, 1),
        )
        assert result.energies[-1] < 0.4 * result.energies[0]

    def test_reflecting_conserves_energy_without_dissipation(self):
        grid = UniformGrid2D.square(64)
        eq = LinearizedEuler(dissipation=0.0)
        sim = Simulation(grid, eq, boundary="reflecting", cfl=0.4)
        result = sim.run(paper_initial_condition(grid), num_snapshots=20, steps_per_snapshot=2)
        drift = abs(result.energies[-1] / result.energies[0] - 1.0)
        assert drift < 0.02

    def test_plane_wave_travels_at_sound_speed(self):
        """After one domain crossing time, the periodic plane wave must
        return to (approximately) its initial phase."""
        grid = UniformGrid2D.square(128)
        bg = Background()
        eq = LinearizedEuler(bg, dissipation=0.0)
        sim = Simulation(grid, eq, boundary="periodic", cfl=0.4)
        initial = plane_wave(grid, wavenumber=(1, 0), background=bg)
        steps = int(round((grid.x_max - grid.x_min) / bg.sound_speed / sim.dt))
        final = sim.advance(initial.copy(), steps)
        error = np.max(np.abs(final.p - initial.p)) / np.max(np.abs(initial.p))
        assert error < 0.12  # dispersion + dt rounding at CD2/128 points

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_instability_detected(self):
        """A CFL violation must raise, not return NaNs silently (the
        overflow RuntimeWarnings on the way up are expected)."""
        grid = UniformGrid2D.square(32)
        sim = Simulation(grid, cfl=0.5)
        sim.dt *= 20.0  # deliberately break the CFL bound
        with pytest.raises(SolverError, match="blew up"):
            sim.run(paper_initial_condition(grid), num_snapshots=200)

    def test_grid_convergence_of_pulse_solution(self):
        """Refining the grid must reduce deviation from a reference run."""
        def pulse_after(n):
            grid = UniformGrid2D.square(n)
            eq = LinearizedEuler(dissipation=0.0)
            sim = Simulation(grid, eq, boundary="outflow", cfl=0.2)
            # Fixed physical time via fixed step count scaled by dt.
            target_time = 0.2
            steps = int(round(target_time / sim.dt))
            state = sim.advance(paper_initial_condition(grid), steps)
            # Sample the centre value (grid-independent location).
            return state.p[n // 2, n // 2]

        coarse = pulse_after(33)
        fine = pulse_after(65)
        finest = pulse_after(129)
        assert abs(fine - finest) < abs(coarse - finest)
