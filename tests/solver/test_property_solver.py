"""Property-based tests on the solver's mathematical structure."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver import (
    Background,
    EulerState,
    LinearizedEuler,
    UniformGrid2D,
    apply_outflow,
    apply_periodic,
    gaussian_pulse,
    rk4_step,
)
from repro.solver.time_integrators import STAGES


def random_fields(seed, shape=(12, 12)):
    return np.random.default_rng(seed).standard_normal((4,) + shape)


def random_state(seed, shape=(12, 12)):
    return EulerState.from_array(random_fields(seed, shape))


@given(st.integers(0, 10_000), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_rhs_is_linear(seed, alpha, beta):
    """The linearized Euler RHS is a linear operator — by construction
    of the equations; the discrete operator must inherit it exactly."""
    eq = LinearizedEuler(dissipation=0.02)
    s1 = random_fields(seed)
    s2 = random_fields(seed + 1)
    combined = (alpha * s1) + (beta * s2)
    lhs = eq.rhs_array(combined, 0.1, 0.1)
    rhs = alpha * eq.rhs_array(s1, 0.1, 0.1) + beta * eq.rhs_array(s2, 0.1, 0.1)
    scale = np.abs(lhs).max() + 1.0
    assert np.allclose(lhs, rhs, atol=1e-9 * scale)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_rk4_step_is_linear_in_state(seed):
    """Linear RHS + linear integrator => linear step map."""
    eq = LinearizedEuler()
    s1 = random_fields(seed)
    s2 = random_fields(seed + 7)
    rhs = lambda s, out: np.copyto(out, eq.rhs_array(s, 0.1, 0.1))  # noqa: E731
    dt = 1e-3

    def stepped(state):
        rk4_step(state, rhs, dt, np.empty((STAGES,) + state.shape))
        return state

    stepped_sum = stepped(s1 + s2)
    sum_stepped = stepped(s1.copy()) + stepped(s2.copy())
    scale = np.abs(stepped_sum).max() + 1.0
    assert np.allclose(stepped_sum, sum_stepped, atol=1e-9 * scale)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_boundary_conditions_idempotent(seed):
    """Applying a BC twice must equal applying it once."""
    for bc in (apply_outflow, apply_periodic):
        state = random_state(seed)
        once = bc(state.copy())
        twice = bc(once.copy())
        assert np.allclose(once.to_array(), twice.to_array())


@given(st.floats(0.1, 2.0), st.floats(0.05, 0.5))
@settings(max_examples=30, deadline=None)
def test_pulse_scales_linearly_with_amplitude(amplitude, half_width):
    grid = UniformGrid2D.square(17)
    one = gaussian_pulse(grid, amplitude=1.0, half_width=half_width, isentropic=False)
    scaled = gaussian_pulse(grid, amplitude=amplitude, half_width=half_width, isentropic=False)
    assert np.allclose(scaled.p, amplitude * one.p)


@given(st.floats(0.5, 4.0), st.floats(0.5, 4.0), st.floats(1.1, 2.0))
@settings(max_examples=40, deadline=None)
def test_sound_speed_formula(p_c, rho_c, gamma):
    bg = Background(p_c=p_c, rho_c=rho_c, gamma=gamma)
    assert np.isclose(bg.sound_speed, np.sqrt(gamma * p_c / rho_c))


@given(st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_energy_is_norm_like(seed):
    """Acoustic energy is positive-definite and quadratic."""
    eq = LinearizedEuler()
    state = random_state(seed)
    energy = eq.acoustic_energy(state, 0.1, 0.1)
    assert energy > 0.0
    doubled = eq.acoustic_energy(EulerState.from_array(2.0 * state.to_array()), 0.1, 0.1)
    assert np.isclose(doubled, 4.0 * energy)
