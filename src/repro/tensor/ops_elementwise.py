"""Elementwise differentiable operations (binary arithmetic, unary maps,
activations).

Each op computes the forward result with plain NumPy and attaches a
backward closure returning one gradient per parent (or ``None`` for
non-differentiable parents).  Broadcasting is handled by
:func:`repro.tensor.autograd.unbroadcast`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .autograd import unbroadcast
from .tensor import Tensor, ensure_tensor, register_op


@register_op("add")
def add(a: Any, b: Any) -> Tensor:
    """Elementwise ``a + b`` with NumPy broadcasting."""
    ta, tb = ensure_tensor(a), ensure_tensor(b)
    out = ta.data + tb.data

    def backward(grad: np.ndarray):
        return unbroadcast(grad, ta.shape), unbroadcast(grad, tb.shape)

    return Tensor.from_op(out, (ta, tb), backward, "add")


@register_op("sub")
def sub(a: Any, b: Any) -> Tensor:
    """Elementwise ``a - b``."""
    ta, tb = ensure_tensor(a), ensure_tensor(b)
    out = ta.data - tb.data

    def backward(grad: np.ndarray):
        return unbroadcast(grad, ta.shape), unbroadcast(-grad, tb.shape)

    return Tensor.from_op(out, (ta, tb), backward, "sub")


@register_op("mul")
def mul(a: Any, b: Any) -> Tensor:
    """Elementwise (Hadamard) product."""
    ta, tb = ensure_tensor(a), ensure_tensor(b)
    out = ta.data * tb.data

    def backward(grad: np.ndarray):
        return (
            unbroadcast(grad * tb.data, ta.shape),
            unbroadcast(grad * ta.data, tb.shape),
        )

    return Tensor.from_op(out, (ta, tb), backward, "mul")


@register_op("div")
def div(a: Any, b: Any) -> Tensor:
    """Elementwise quotient ``a / b``."""
    ta, tb = ensure_tensor(a), ensure_tensor(b)
    out = ta.data / tb.data

    def backward(grad: np.ndarray):
        ga = grad / tb.data
        gb = -grad * ta.data / (tb.data * tb.data)
        return unbroadcast(ga, ta.shape), unbroadcast(gb, tb.shape)

    return Tensor.from_op(out, (ta, tb), backward, "div")


@register_op("neg")
def neg(a: Any) -> Tensor:
    """Elementwise negation."""
    ta = ensure_tensor(a)

    def backward(grad: np.ndarray):
        return (-grad,)

    return Tensor.from_op(-ta.data, (ta,), backward, "neg")


@register_op("pow")
def power(a: Any, exponent: float) -> Tensor:
    """Elementwise power with a constant (non-differentiated) exponent."""
    ta = ensure_tensor(a)
    exponent = float(exponent)
    out = ta.data**exponent

    def backward(grad: np.ndarray):
        return (grad * exponent * ta.data ** (exponent - 1.0),)

    return Tensor.from_op(out, (ta,), backward, "pow")


@register_op("exp")
def exp(a: Any) -> Tensor:
    """Elementwise exponential."""
    ta = ensure_tensor(a)
    out = np.exp(ta.data)

    def backward(grad: np.ndarray):
        return (grad * out,)

    return Tensor.from_op(out, (ta,), backward, "exp")


@register_op("log")
def log(a: Any) -> Tensor:
    """Elementwise natural logarithm."""
    ta = ensure_tensor(a)

    def backward(grad: np.ndarray):
        return (grad / ta.data,)

    return Tensor.from_op(np.log(ta.data), (ta,), backward, "log")


@register_op("abs")
def absolute(a: Any) -> Tensor:
    """Elementwise absolute value; subgradient 0 at exactly zero."""
    ta = ensure_tensor(a)

    def backward(grad: np.ndarray):
        return (grad * np.sign(ta.data),)

    return Tensor.from_op(np.abs(ta.data), (ta,), backward, "abs")


@register_op("maximum")
def maximum(a: Any, b: Any) -> Tensor:
    """Elementwise maximum; ties route the gradient to the first input."""
    ta, tb = ensure_tensor(a), ensure_tensor(b)
    mask = ta.data >= tb.data
    out = np.where(mask, ta.data, tb.data)

    def backward(grad: np.ndarray):
        return (
            unbroadcast(grad * mask, ta.shape),
            unbroadcast(grad * ~mask, tb.shape),
        )

    return Tensor.from_op(out, (ta, tb), backward, "maximum")


@register_op("minimum")
def minimum(a: Any, b: Any) -> Tensor:
    """Elementwise minimum; ties route the gradient to the first input."""
    ta, tb = ensure_tensor(a), ensure_tensor(b)
    mask = ta.data <= tb.data
    out = np.where(mask, ta.data, tb.data)

    def backward(grad: np.ndarray):
        return (
            unbroadcast(grad * mask, ta.shape),
            unbroadcast(grad * ~mask, tb.shape),
        )

    return Tensor.from_op(out, (ta, tb), backward, "minimum")


@register_op("clip")
def clip(a: Any, low: float | None, high: float | None) -> Tensor:
    """Clamp values to ``[low, high]``; gradient is zero where clipped."""
    ta = ensure_tensor(a)
    out = np.clip(ta.data, low, high)
    mask = np.ones_like(ta.data, dtype=bool)
    if low is not None:
        mask &= ta.data >= low
    if high is not None:
        mask &= ta.data <= high

    def backward(grad: np.ndarray):
        return (grad * mask,)

    return Tensor.from_op(out, (ta,), backward, "clip")


@register_op("where")
def where(condition: Any, a: Any, b: Any) -> Tensor:
    """Select ``a`` where ``condition`` is true, else ``b``.

    ``condition`` is treated as a constant boolean mask.
    """
    cond = np.asarray(condition.data if isinstance(condition, Tensor) else condition, dtype=bool)
    ta, tb = ensure_tensor(a), ensure_tensor(b)
    out = np.where(cond, ta.data, tb.data)

    def backward(grad: np.ndarray):
        return (
            unbroadcast(grad * cond, ta.shape),
            unbroadcast(grad * ~cond, tb.shape),
        )

    return Tensor.from_op(out, (ta, tb), backward, "where")


@register_op("relu")
def relu(a: Any) -> Tensor:
    """Rectified linear unit, Eq. (1) of the paper."""
    ta = ensure_tensor(a)
    mask = ta.data > 0.0

    def backward(grad: np.ndarray):
        return (grad * mask,)

    return Tensor.from_op(ta.data * mask, (ta,), backward, "relu")


@register_op("leaky_relu")
def leaky_relu(a: Any, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU, Eq. (2) of the paper (``negative_slope`` is ε)."""
    ta = ensure_tensor(a)
    # In the operand's dtype: a float64 scale would promote a float32
    # product and round it differently from the fused kernels.
    scale = np.where(ta.data >= 0.0, 1.0, negative_slope).astype(ta.dtype, copy=False)

    def backward(grad: np.ndarray):
        return (grad * scale,)

    return Tensor.from_op(ta.data * scale, (ta,), backward, "leaky_relu")


@register_op("sigmoid")
def sigmoid(a: Any) -> Tensor:
    """Numerically stable logistic sigmoid."""
    ta = ensure_tensor(a)
    x = ta.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def backward(grad: np.ndarray):
        return (grad * out * (1.0 - out),)

    return Tensor.from_op(out, (ta,), backward, "sigmoid")


@register_op("tanh")
def tanh(a: Any) -> Tensor:
    """Hyperbolic tangent."""
    ta = ensure_tensor(a)
    out = np.tanh(ta.data)

    def backward(grad: np.ndarray):
        return (grad * (1.0 - out * out),)

    return Tensor.from_op(out, (ta,), backward, "tanh")
