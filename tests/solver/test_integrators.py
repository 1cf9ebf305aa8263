"""Time-integrator order-of-accuracy tests.

The integrators advance a ``(C, ny, nx)`` stack in place; to test
temporal order we step the scalar ODE q' = lambda*q in every element
(the RHS ignores space).
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.solver import euler_step, get_integrator, heun_step, rk4_step
from repro.solver.time_integrators import STAGES

LAMBDA = -1.3


def scalar_rhs(fields: np.ndarray, out: np.ndarray) -> None:
    np.multiply(fields, LAMBDA, out=out)


def stages_for(state: np.ndarray) -> np.ndarray:
    return np.empty((STAGES,) + state.shape)


def integrate(step, dt, steps):
    state = np.zeros((4, 3, 3))
    state[0] = 1.0
    stages = stages_for(state)
    for _ in range(steps):
        step(state, scalar_rhs, dt, stages)
    return state[0, 0, 0]


def observed_order(step):
    errors = []
    for steps in (16, 32):
        dt = 1.0 / steps
        exact = np.exp(LAMBDA)
        errors.append(abs(integrate(step, dt, steps) - exact))
    return np.log2(errors[0] / errors[1])


class TestOrders:
    def test_euler_first_order(self):
        assert 0.8 < observed_order(euler_step) < 1.3

    def test_heun_second_order(self):
        assert 1.8 < observed_order(heun_step) < 2.3

    def test_rk4_fourth_order(self):
        assert 3.7 < observed_order(rk4_step) < 4.5

    def test_rk4_much_more_accurate_than_euler(self):
        exact = np.exp(LAMBDA)
        err_euler = abs(integrate(euler_step, 1.0 / 32, 32) - exact)
        err_rk4 = abs(integrate(rk4_step, 1.0 / 32, 32) - exact)
        assert err_rk4 < err_euler / 100.0


class TestAllFields:
    def test_all_channels_advanced(self, rng):
        state = np.empty((4, 3, 3))
        state[0], state[1], state[2], state[3] = 1.0, 2.0, -1.0, 0.5
        rk4_step(state, scalar_rhs, 0.1, stages_for(state))
        factor = state[0, 0, 0] / 1.0
        assert np.isclose(state[1, 0, 0] / 2.0, factor)
        assert np.isclose(state[2, 0, 0] / -1.0, factor)
        assert np.isclose(state[3, 0, 0] / 0.5, factor)

    @pytest.mark.parametrize("step", [euler_step, heun_step, rk4_step])
    def test_step_does_not_mutate_input(self, step):
        """The state is written once, after the last stage: every RHS
        call sees the input unchanged and writes a buffer it does not
        read."""
        state = np.ones((4, 3, 3))
        calls = []

        def watching_rhs(fields, out):
            calls.append(np.shares_memory(fields, out))
            assert np.allclose(state, 1.0)
            scalar_rhs(fields, out)

        step(state, watching_rhs, 0.1, stages_for(state))
        assert calls and not any(calls)
        assert not np.allclose(state, 1.0)


class TestRegistry:
    def test_lookup(self):
        assert get_integrator("rk4") is rk4_step
        assert get_integrator("heun") is heun_step
        assert get_integrator("rk2") is heun_step
        assert get_integrator("euler") is euler_step

    def test_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            get_integrator("leapfrog")
