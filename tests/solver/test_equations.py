"""Linearized-Euler equation tests."""

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.solver import Background, EulerState, LinearizedEuler, UniformGrid2D, plane_wave


def rhs_of(eq, state, dx, dy):
    """The time derivative of an Euler state, through ``rhs_array``."""
    return EulerState.from_array(eq.rhs_array(state.to_array(), dx, dy))

class TestBackground:
    def test_paper_defaults(self):
        bg = Background()
        assert bg.p_c == 1.0  # 1 bar, in bar units
        assert bg.rho_c == 1.0
        assert bg.u_c == 0.0 and bg.v_c == 0.0
        assert bg.gamma == 1.4

    def test_sound_speed(self):
        bg = Background(p_c=1.0, rho_c=1.0, gamma=1.4)
        assert np.isclose(bg.sound_speed, np.sqrt(1.4))

    def test_si_air(self):
        bg = Background.si_air()
        assert bg.p_c == 1.0e5
        assert np.isclose(bg.sound_speed, np.sqrt(1.4e5))

    def test_max_wave_speed_includes_advection(self):
        bg = Background(u_c=3.0, v_c=4.0)
        assert np.isclose(bg.max_wave_speed, 5.0 + bg.sound_speed)

    def test_validation(self):
        with pytest.raises(SolverError):
            Background(rho_c=0.0)
        with pytest.raises(SolverError):
            Background(gamma=1.0)


class TestRHS:
    def test_quiescent_state_has_zero_rhs(self):
        eq = LinearizedEuler(dissipation=0.0)
        state = EulerState.zeros((8, 8))
        rhs = rhs_of(eq, state, 0.1, 0.1)
        assert rhs.max_abs() == 0.0

    def test_uniform_pressure_drives_no_interior_velocity(self):
        eq = LinearizedEuler(dissipation=0.0)
        state = EulerState.zeros((8, 8))
        state.p[...] = 2.0
        rhs = rhs_of(eq, state, 0.1, 0.1)
        assert np.allclose(rhs.u, 0.0)
        assert np.allclose(rhs.v, 0.0)
        assert np.allclose(rhs.p, 0.0)

    def test_pressure_gradient_accelerates_fluid(self):
        """du/dt = -1/rho_c dp/dx (Eq. 8b at rest)."""
        grid = UniformGrid2D.square(17)
        bg = Background(rho_c=2.0)
        eq = LinearizedEuler(bg, dissipation=0.0)
        state = EulerState.zeros(grid.shape)
        X, _ = grid.meshgrid()
        state.p[...] = 3.0 * X
        rhs = rhs_of(eq, state, grid.dx, grid.dy)
        assert np.allclose(rhs.u, -3.0 / 2.0)
        assert np.allclose(rhs.v, 0.0)

    def test_velocity_divergence_compresses(self):
        """dp/dt = -gamma p_c div(u); drho/dt = -rho_c div(u)."""
        grid = UniformGrid2D.square(17)
        bg = Background(p_c=2.0, rho_c=3.0, gamma=1.4)
        eq = LinearizedEuler(bg, dissipation=0.0)
        state = EulerState.zeros(grid.shape)
        X, _ = grid.meshgrid()
        state.u[...] = 0.5 * X  # div u = 0.5
        rhs = rhs_of(eq, state, grid.dx, grid.dy)
        assert np.allclose(rhs.p, -1.4 * 2.0 * 0.5)
        assert np.allclose(rhs.rho, -3.0 * 0.5)

    def test_background_advection_term(self):
        """With u_c != 0 a pure density pattern is advected."""
        grid = UniformGrid2D.square(17)
        bg = Background(u_c=2.0)
        eq = LinearizedEuler(bg, dissipation=0.0)
        state = EulerState.zeros(grid.shape)
        X, _ = grid.meshgrid()
        state.rho[...] = X  # drho/dt = -u_c * drho/dx = -2
        rhs = rhs_of(eq, state, grid.dx, grid.dy)
        assert np.allclose(rhs.rho, -2.0)

    def test_plane_wave_is_near_eigenmode(self):
        """For the acoustic relations, d/dt q = -c dq/dx for a +x wave."""
        grid = UniformGrid2D.square(129)
        bg = Background()
        eq = LinearizedEuler(bg, dissipation=0.0)
        state = plane_wave(grid, amplitude=1.0, wavenumber=(1, 0), background=bg)
        rhs = rhs_of(eq, state, grid.dx, grid.dy)
        # Compare interior (edges use one-sided stencils).
        from repro.solver import ddx

        expected = -bg.sound_speed * ddx(state.p, grid.dx)
        interior = np.s_[2:-2, 2:-2]
        scale = np.max(np.abs(expected))
        assert np.allclose(rhs.p[interior], expected[interior], atol=0.02 * scale)

    def test_dissipation_damps_extrema(self):
        eq = LinearizedEuler(dissipation=0.1)
        state = EulerState.zeros((9, 9))
        state.p[4, 4] = 1.0  # sharp spike
        rhs = rhs_of(eq, state, 0.1, 0.1)
        assert rhs.p[4, 4] < 0.0  # Laplacian pulls the spike down

    def test_negative_dissipation_raises(self):
        with pytest.raises(SolverError):
            LinearizedEuler(dissipation=-0.1)


class TestStableDt:
    def test_scales_inversely_with_resolution(self):
        eq = LinearizedEuler()
        dt_coarse = eq.stable_dt(0.1, 0.1)
        dt_fine = eq.stable_dt(0.05, 0.05)
        assert np.isclose(dt_coarse / dt_fine, 2.0)

    def test_scales_with_cfl(self):
        eq = LinearizedEuler()
        assert np.isclose(eq.stable_dt(0.1, 0.1, cfl=1.0) / eq.stable_dt(0.1, 0.1, cfl=0.5), 2.0)

    def test_invalid_cfl_raises(self):
        with pytest.raises(SolverError):
            LinearizedEuler().stable_dt(0.1, 0.1, cfl=0.0)


class TestEnergy:
    def test_zero_for_quiescent(self):
        eq = LinearizedEuler()
        assert eq.acoustic_energy(EulerState.zeros((5, 5)), 0.1, 0.1) == 0.0

    def test_positive_and_additive(self, rng):
        eq = LinearizedEuler()
        state = EulerState.zeros((5, 5))
        state.u[...] = rng.standard_normal((5, 5))
        energy_u = eq.acoustic_energy(state, 0.1, 0.1)
        assert energy_u > 0.0
        state.p[...] = rng.standard_normal((5, 5))
        assert eq.acoustic_energy(state, 0.1, 0.1) > energy_u

    def test_scales_quadratically(self):
        eq = LinearizedEuler()
        state = EulerState.zeros((5, 5))
        state.p[...] = 1.0
        e1 = eq.acoustic_energy(state, 0.1, 0.1)
        state.p[...] = 2.0
        assert np.isclose(eq.acoustic_energy(state, 0.1, 0.1), 4.0 * e1)
