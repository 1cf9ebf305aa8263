"""Finite-difference operator accuracy tests."""

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.solver import ddx, ddy, divergence, laplacian


def second_order_rate(errors, factors=2.0):
    """Observed convergence order from errors at h and h/2."""
    return np.log2(errors[0] / errors[1])


class TestExactness:
    def test_linear_exact_interior_and_boundary(self):
        """A 2nd-order stencil differentiates polynomials of degree <= 2
        exactly (including the one-sided edge stencils)."""
        x = np.linspace(0.0, 1.0, 11)
        X, Y = np.meshgrid(x, x)
        f = 3.0 * X + 2.0 * Y + 1.0
        assert np.allclose(ddx(f, x[1] - x[0]), 3.0)
        assert np.allclose(ddy(f, x[1] - x[0]), 2.0)

    def test_quadratic_exact(self):
        x = np.linspace(-1.0, 1.0, 9)
        h = x[1] - x[0]
        X, Y = np.meshgrid(x, x)
        f = X**2 + X * Y
        assert np.allclose(ddx(f, h), 2.0 * X + Y)
        assert np.allclose(ddy(f, h), X)


class TestConvergence:
    def test_ddx_second_order(self):
        errors = []
        for n in (33, 65):
            x = np.linspace(0.0, 1.0, n)
            h = x[1] - x[0]
            X, Y = np.meshgrid(x, x)
            f = np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y)
            exact = 2 * np.pi * np.cos(2 * np.pi * X) * np.cos(2 * np.pi * Y)
            errors.append(np.max(np.abs(ddx(f, h) - exact)))
        assert second_order_rate(errors) > 1.8

    def test_ddy_second_order(self):
        errors = []
        for n in (33, 65):
            x = np.linspace(0.0, 1.0, n)
            h = x[1] - x[0]
            X, Y = np.meshgrid(x, x)
            f = np.cos(2 * np.pi * Y) * X
            exact = -2 * np.pi * np.sin(2 * np.pi * Y) * X
            errors.append(np.max(np.abs(ddy(f, h) - exact)))
        assert second_order_rate(errors) > 1.8

    def test_laplacian_interior_second_order(self):
        errors = []
        for n in (33, 65):
            x = np.linspace(0.0, 1.0, n)
            h = x[1] - x[0]
            X, Y = np.meshgrid(x, x)
            f = np.sin(np.pi * X) * np.sin(np.pi * Y)
            exact = -2 * np.pi**2 * f
            approx = laplacian(f, h, h)
            errors.append(np.max(np.abs(approx - exact)[1:-1, 1:-1]))
        assert second_order_rate(errors) > 1.8


class TestDivergence:
    def test_divergence_free_field(self):
        x = np.linspace(0.0, 1.0, 41)
        h = x[1] - x[0]
        X, Y = np.meshgrid(x, x)
        # (u, v) = (dpsi/dy, -dpsi/dx) is divergence-free for any psi.
        u = np.cos(np.pi * X) * np.cos(np.pi * Y)
        v = -np.sin(np.pi * X) * -np.sin(np.pi * Y) * (-1.0)
        psi_u = np.pi * np.cos(np.pi * X) * np.cos(np.pi * Y)
        psi_v = np.pi * np.sin(np.pi * X) * np.sin(np.pi * Y)
        div = divergence(psi_u, psi_v, h, h)
        # Analytic divergence is zero; discrete should be O(h^2)-small.
        assert np.max(np.abs(div[1:-1, 1:-1])) < 0.05

    def test_divergence_is_sum_of_partials(self, rng):
        f = rng.standard_normal((8, 8))
        g = rng.standard_normal((8, 8))
        assert np.allclose(divergence(f, g, 0.1, 0.2), ddx(f, 0.1) + ddy(g, 0.2))


class TestFourthOrder:
    def test_cubic_exact_including_edges(self):
        x = np.linspace(0.0, 1.0, 11)
        h = x[1] - x[0]
        X, Y = np.meshgrid(x, x)
        f = X**3 + X * Y**2
        assert np.allclose(ddx(f, h, order=4), 3.0 * X**2 + Y**2, atol=1e-10)
        g = Y**3 + Y * X**2
        assert np.allclose(ddy(g, h, order=4), 3.0 * Y**2 + X**2, atol=1e-10)

    def test_fourth_order_convergence(self):
        errors = []
        for n in (33, 65):
            x = np.linspace(0.0, 1.0, n)
            h = x[1] - x[0]
            X, Y = np.meshgrid(x, x)
            f = np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y)
            exact = 2 * np.pi * np.cos(2 * np.pi * X) * np.cos(2 * np.pi * Y)
            errors.append(np.max(np.abs(ddx(f, h, order=4) - exact)))
        assert second_order_rate(errors) > 3.5

    def test_much_more_accurate_than_second_order(self):
        x = np.linspace(0.0, 1.0, 65)
        h = x[1] - x[0]
        X, Y = np.meshgrid(x, x)
        f = np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y)
        exact = 2 * np.pi * np.cos(2 * np.pi * X) * np.cos(2 * np.pi * Y)
        err2 = np.max(np.abs(ddx(f, h, order=2) - exact))
        err4 = np.max(np.abs(ddx(f, h, order=4) - exact))
        assert err4 < err2 / 20.0

    def test_solver_accepts_order4(self):
        from repro.solver import (
            LinearizedEuler,
            Simulation,
            UniformGrid2D,
            paper_initial_condition,
        )

        grid = UniformGrid2D.square(32)
        sim = Simulation(grid, LinearizedEuler(order=4), cfl=0.4)
        result = sim.run(paper_initial_condition(grid), num_snapshots=5)
        assert np.isfinite(result.snapshots).all()

    def test_bad_order_rejected(self):
        from repro.solver import LinearizedEuler

        with pytest.raises(SolverError):
            LinearizedEuler(order=3)
        with pytest.raises(SolverError):
            ddx(np.zeros((8, 8)), 0.1, order=6)

    def test_order4_needs_six_points(self):
        with pytest.raises(SolverError):
            ddx(np.zeros((8, 5)), 0.1, order=4)


class TestValidation:
    def test_too_narrow_raises(self):
        with pytest.raises(SolverError):
            ddx(np.zeros((5, 2)), 0.1)
        with pytest.raises(SolverError):
            ddy(np.zeros((2, 5)), 0.1)


class TestStacks:
    """The flat-shift stencils wrap rows and cross channels only at edge
    positions: a channel stack differentiates as its channels do."""

    @pytest.mark.parametrize("order", [2, 4])
    def test_stack_equals_its_channels_bitwise(self, rng, order):
        stack = rng.standard_normal((3, 9, 11))
        for op, args in ((ddx, (0.1, order)), (ddy, (0.2, order)), (laplacian, (0.1, 0.2))):
            whole = op(stack, *args)
            for channel in range(3):
                assert np.array_equal(whole[channel], op(stack[channel], *args)), op

    def test_transposed_view_matches_the_other_axis(self, rng):
        field = rng.standard_normal((9, 11))
        assert np.array_equal(ddy(field.T, 0.1), ddx(field, 0.1).T)

    def test_out_and_scratch_are_used_in_place(self, rng):
        stack = rng.standard_normal((2, 8, 8))
        out, scratch = np.empty_like(stack), np.empty_like(stack)
        assert ddx(stack, 0.1, order=4, out=out, scratch=scratch) is out
        assert np.array_equal(out, ddx(stack, 0.1, order=4))
        assert laplacian(stack, 0.1, 0.1, out=out, scratch=scratch) is out
        assert np.array_equal(out, laplacian(stack, 0.1, 0.1))

    def test_laplacian_edges_are_exactly_zero(self, rng):
        result = laplacian(rng.standard_normal((2, 7, 9)), 0.1, 0.1)
        for edge in (result[:, 0], result[:, -1], result[:, :, 0], result[:, :, -1]):
            assert not np.signbit(edge).any() and not edge.any()

    def test_strided_out_is_rejected(self):
        with pytest.raises(SolverError, match="C-contiguous"):
            ddx(np.zeros((8, 8)), 0.1, out=np.empty((8, 16))[:, ::2])
