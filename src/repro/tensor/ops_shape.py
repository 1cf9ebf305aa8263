"""Shape-manipulation operations: reshape, transpose, pad, slicing,
stack.

These ops move no data through nonlinearities, so their adjoints are the
corresponding inverse rearrangements.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..exceptions import ShapeError
from .tensor import Tensor, ensure_tensor, register_op


@register_op("reshape")
def reshape(a: Any, shape: Sequence[int]) -> Tensor:
    """Reshape to ``shape`` (supports a single ``-1`` wildcard)."""
    ta = ensure_tensor(a)
    out = ta.data.reshape(tuple(shape))

    def backward(grad: np.ndarray):
        return (grad.reshape(ta.shape),)

    return Tensor.from_op(out, (ta,), backward, "reshape")


@register_op("transpose")
def transpose(a: Any, axes: Sequence[int] | None = None) -> Tensor:
    """Permute axes (full reversal when ``axes`` is ``None``)."""
    ta = ensure_tensor(a)
    out = np.transpose(ta.data, axes)
    if axes is None:
        inverse: Sequence[int] | None = None
    else:
        inverse = np.argsort(axes)

    def backward(grad: np.ndarray):
        return (np.transpose(grad, inverse),)

    return Tensor.from_op(out, (ta,), backward, "transpose")


@register_op("pad")
def pad(a: Any, pad_width: Sequence[tuple[int, int]], value: float = 0.0) -> Tensor:
    """Constant-pad each axis by ``(before, after)`` amounts."""
    ta = ensure_tensor(a)
    pad_width = tuple((int(lo), int(hi)) for lo, hi in pad_width)
    if len(pad_width) != ta.ndim:
        raise ShapeError(
            f"pad_width has {len(pad_width)} entries for a {ta.ndim}-d tensor"
        )
    out = np.pad(ta.data, pad_width, constant_values=value)
    slices = tuple(
        slice(lo, lo + n) for (lo, _), n in zip(pad_width, ta.shape)
    )

    def backward(grad: np.ndarray):
        return (grad[slices],)

    return Tensor.from_op(out, (ta,), backward, "pad")


@register_op("getitem")
def getitem(a: Any, index: Any) -> Tensor:
    """Basic/advanced indexing; the adjoint scatter-adds into the source."""
    ta = ensure_tensor(a)
    out = ta.data[index]

    def backward(grad: np.ndarray):
        full = np.zeros_like(ta.data)
        # add.at handles repeated indices in advanced indexing correctly.
        np.add.at(full, index, grad)
        return (full,)

    return Tensor.from_op(np.asarray(out), (ta,), backward, "getitem")


@register_op("stack")
def stack(tensors: Sequence[Any], axis: int = 0) -> Tensor:
    """Join tensors along a new axis."""
    parts = [ensure_tensor(t) for t in tensors]
    if not parts:
        raise ShapeError("stack of an empty sequence")
    out = np.stack([p.data for p in parts], axis=axis)

    def backward(grad: np.ndarray):
        pieces = np.split(grad, len(parts), axis=axis)
        return tuple(np.squeeze(piece, axis=axis) for piece in pieces)

    return Tensor.from_op(out, tuple(parts), backward, "stack")


@register_op("flip")
def flip(a: Any, axis: int | tuple[int, ...]) -> Tensor:
    """Reverse element order along ``axis``; self-adjoint."""
    ta = ensure_tensor(a)
    out = np.flip(ta.data, axis=axis)

    def backward(grad: np.ndarray):
        return (np.flip(grad, axis=axis),)

    return Tensor.from_op(out.copy(), (ta,), backward, "flip")
