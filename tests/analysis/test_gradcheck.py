"""Gradcheck harness tests: every registered op, per ops module."""

import numpy as np
import pytest

from repro.analysis import gradcheck as gradcheck_fn
from repro.analysis import check_op, missing_cases, numerical_gradient, ops_by_module
from repro.exceptions import AnalysisError
from repro.tensor import Tensor

MODULES = ("ops_elementwise", "ops_matmul", "ops_conv", "ops_reduce", "ops_shape")
_GROUPS = ops_by_module()
_PAIRS = [(module, op) for module in MODULES for op in sorted(_GROUPS.get(module, []))]


def test_registry_covers_expected_modules():
    assert set(MODULES) <= set(_GROUPS)


def test_every_registered_op_has_a_case():
    assert missing_cases() == []


@pytest.mark.parametrize(("module", "op"), _PAIRS, ids=[f"{m}:{o}" for m, o in _PAIRS])
def test_op_gradcheck(module, op):
    cases_run = check_op(op, np.random.default_rng(7))
    assert cases_run >= 1


@pytest.mark.parametrize("op", ["conv2d", "matmul", "mul", "leaky_relu"])
def test_op_gradcheck_float32_policy(op):
    """Representative ops stay gradcheckable under the float32 policy:
    float32 analytic gradients against the float64 finite-difference
    reference, with the widened *_FLOAT32 tolerance floors (the full
    registry runs at both precisions in the CI kernels job via
    ``repro check --precision``)."""
    from repro.tensor import precision

    with precision("float32"):
        assert check_op(op, np.random.default_rng(7)) >= 1


def test_numerical_gradient_matches_closed_form():
    arrays = [np.array([0.5, -1.5, 2.0])]
    (grad,) = numerical_gradient(lambda t: t * t, arrays)
    np.testing.assert_allclose(grad, 2.0 * arrays[0], rtol=1e-6, atol=1e-8)


@pytest.mark.default_precision
def test_numerical_gradient_is_float64_under_the_float32_default():
    """In the process default, float32, a central difference at ``eps =
    1e-6`` would be roundoff; the reference still runs in float64."""
    arrays = [np.array([0.5, -1.5, 2.0])]
    (grad,) = numerical_gradient(lambda t: t * t, arrays)
    assert grad.dtype == np.float64
    np.testing.assert_allclose(grad, 2.0 * arrays[0], rtol=1e-6, atol=1e-8)


def test_gradcheck_detects_wrong_backward():
    def bad_square(t):
        # Correct forward, wrong backward (should be 2 * x * g).
        return Tensor.from_op(t.data * t.data, (t,), lambda g: (g,), "bad_square")

    with pytest.raises(AnalysisError, match="gradcheck failed"):
        gradcheck_fn(bad_square, [np.array([0.7, -1.2, 2.0])], case_id="bad_square[unit]")


def test_check_op_unknown_name():
    with pytest.raises(AnalysisError, match="no gradcheck case"):
        check_op("not_a_registered_op")
