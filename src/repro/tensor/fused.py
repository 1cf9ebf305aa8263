"""In-place, inference-only fused elementwise kernels.

These are the "elementwise variants used only under ``no_grad``" from
the workspace/fusion layer: they mutate their operand's storage instead
of materializing a new array, which is exactly what the autograd tape
cannot tolerate — a recorded parent's ``data`` must stay frozen until
``backward`` runs.  Every entry point therefore refuses to run while
gradient recording is enabled (:class:`~repro.exceptions.AutogradError`),
which is also why none of them is a registered op: registered ops must
pass the gradcheck harness, and an op that rewrites its input has no
well-defined finite-difference reference.

All kernels are bit-identical to their out-of-place counterparts in
:mod:`~repro.tensor.ops_elementwise`.  In particular the leaky-ReLU
variants multiply by ``negative_slope`` *only where the operand is
negative* (``np.multiply(..., where=mask)``); the untouched non-negative
lanes equal the naive path's ``x * 1.0`` exactly under IEEE-754.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..exceptions import AutogradError
from . import autograd, perf
from .tensor import Tensor

__all__ = [
    "add_",
    "leaky_relu_",
    "leaky_relu_scale",
    "mul_",
]


def _writable(x: Any, name: str) -> np.ndarray:
    """The operand's storage, after checking the in-place contract."""
    if autograd.grad_enabled():
        raise AutogradError(
            f"{name} mutates its operand in place and would corrupt any "
            "autograd tape that recorded it; wrap the call in no_grad()"
        )
    data = x.data if isinstance(x, Tensor) else x
    if not isinstance(data, np.ndarray):
        raise AutogradError(
            f"{name} requires an ndarray or Tensor operand to mutate, "
            f"got {type(x).__name__}"
        )
    return data


def leaky_relu_scale(z: np.ndarray, negative_slope: float = 0.01) -> np.ndarray:
    """The leaky-ReLU derivative mask ``where(z >= 0, 1, slope)``.

    Built once by the fused ``conv2d`` forward (strip and reference
    paths) and reused by its backward, so both directions scale with
    the exact same array.  The out-of-place ``leaky_relu`` op builds
    its own ``np.where`` of the same values rather than calling this.
    The mask is built in ``z``'s own dtype: the float64 values are
    unchanged (1.0 and any Python-float slope are exact in float32 and
    float64 alike for the slopes we use), and a float32 backward pass
    would otherwise be silently promoted to float64 by the float64
    array ``np.where`` produces from Python-float branches.
    """
    # Never reached from an InferencePlan: its steps fuse the
    # activation into the strip epilogue instead.
    scale = np.empty_like(z)
    scale[...] = negative_slope
    np.copyto(scale, 1.0, where=z >= 0.0)
    return scale


def leaky_relu_(x: Any, negative_slope: float = 0.01) -> Any:
    """In-place leaky ReLU (inference only); returns ``x``."""
    data = _writable(x, "leaky_relu_")
    with perf.timed("fused.leaky_relu_"):
        mask = data < 0.0
        np.multiply(data, negative_slope, out=data, where=mask)
    return x


def add_(x: Any, other: Any) -> Any:
    """In-place ``x += other`` (inference only); returns ``x``."""
    data = _writable(x, "add_")
    with perf.timed("fused.add_"):
        data += other.data if isinstance(other, Tensor) else other
    return x


def mul_(x: Any, other: Any) -> Any:
    """In-place ``x *= other`` (inference only); returns ``x``."""
    data = _writable(x, "mul_")
    with perf.timed("fused.mul_"):
        data *= other.data if isinstance(other, Tensor) else other
    return x
