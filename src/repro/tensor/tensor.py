"""The :class:`Tensor` type: a NumPy array plus an autodiff graph node.

Differentiable operations live in the sibling ``ops_*`` modules and are
attached to :class:`Tensor` through a registry (:func:`register_op`) so
that this module stays free of numerical code and the operator modules
stay free of class plumbing.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..exceptions import AutogradError
from . import autograd
from .precision import default_dtype as _default_dtype

# Registry of differentiable operations, populated by the ops modules.
_OPS: dict[str, Callable[..., Any]] = {}


def register_op(name: str) -> Callable[[Callable], Callable]:
    """Class decorator-style registration of an op under ``name``.

    The registered callable becomes reachable as ``Tensor.<dunder>`` for
    operator overloads and through :func:`get_op` for functional use.
    """

    def decorator(fn: Callable) -> Callable:
        if name in _OPS:
            raise ValueError(f"op {name!r} registered twice")
        _OPS[name] = fn
        return fn

    return decorator


def get_op(name: str) -> Callable[..., Any]:
    """Look up a registered op; raises ``KeyError`` for unknown names."""
    return _OPS[name]


def registered_ops() -> tuple[str, ...]:
    """Names of every registered differentiable op (sorted).

    The gradcheck harness in :mod:`repro.analysis` uses this to enforce
    that every op has numerical-gradient coverage.
    """
    return tuple(sorted(_OPS))


class Tensor:
    """A multi-dimensional array participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to a NumPy array.  Non-floating inputs are
        converted to the policy dtype
        (:func:`repro.tensor.precision.default_dtype`).  Floating
        inputs keep their dtype, except under the ``float32`` compute
        mode, where float64 inputs are down-cast unless an explicit
        ``dtype=`` overrides the policy — casting at this single
        boundary is what keeps float64 from silently leaking back into
        a float32 run.
    requires_grad:
        Whether gradients should flow into this tensor.  Leaf tensors
        with ``requires_grad=True`` accumulate into ``.grad``.

    ``bordered`` is ``None`` or the zero-bordered buffer whose interior
    is ``data``, set only by the op that zeroed the border (a chained
    ``conv2d``), so that a following padded conv reads it without a pad
    copy.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "bordered",
        "_parents",
        "_backward",
        "_retains_grad",
        "op_name",
    )

    # Make ``np.ndarray op Tensor`` dispatch to our reflected dunders.
    __array_priority__ = 100.0

    def __init__(
        self,
        data: Any,
        requires_grad: bool = False,
        dtype: np.dtype | type | None = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        array = np.asarray(data, dtype=dtype)
        if not np.issubdtype(array.dtype, np.floating):
            array = array.astype(_default_dtype())
        elif dtype is None and array.dtype == np.float64:
            target = _default_dtype()
            if array.dtype != target:
                array = array.astype(target)
        self.data: np.ndarray = array
        self.requires_grad: bool = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.bordered: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None
        # Leaves that require grad retain their gradient; interior nodes
        # may opt in via retain_grad().
        self._retains_grad: bool = self.requires_grad
        self.op_name: str | None = None

    # ------------------------------------------------------------------
    # Graph construction helper used by the ops modules.
    # ------------------------------------------------------------------
    @staticmethod
    def from_op(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], Sequence[np.ndarray | None]],
        op_name: str,
    ) -> "Tensor":
        """Create the output tensor of a differentiable operation.

        If gradient recording is disabled or no parent requires a
        gradient, the result is detached (no graph edge is created), so
        inference costs no extra memory.
        """
        needs_grad = autograd.grad_enabled() and any(
            p.requires_grad for p in parents
        )
        out = Tensor(data, requires_grad=needs_grad)
        if needs_grad:
            out._parents = parents
            out._backward = backward
            out._retains_grad = False
            out.op_name = op_name
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return get_op("transpose")(self)

    def is_leaf(self) -> bool:
        """Whether this tensor was created by the user, not by an op."""
        return self._backward is None

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        op = f", op={self.op_name}" if self.op_name else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{grad_flag}{op})"

    # ------------------------------------------------------------------
    # Gradient control
    # ------------------------------------------------------------------
    def backward(self, gradient: np.ndarray | None = None) -> None:
        """Accumulate gradients of this (scalar) tensor into the leaves."""
        autograd.backward_pass(self, gradient)

    def zero_grad(self) -> None:
        """Drop the accumulated gradient."""
        self.grad = None

    def retain_grad(self) -> None:
        """Request that this interior node keep its gradient after
        ``backward()`` (leaves always do)."""
        if not self.requires_grad:
            raise AutogradError("retain_grad() on a tensor without grad")
        self._retains_grad = True

    def detach(self) -> "Tensor":
        """Return a view of the data cut off from the autodiff graph."""
        # Pin the dtype so a float32-mode policy never turns this view
        # into a casting copy of an explicitly-float64 tensor.
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def copy(self) -> "Tensor":
        """Return a detached deep copy of the data."""
        return Tensor(self.data.copy(), requires_grad=False, dtype=self.data.dtype)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy). Mutating it while the
        tensor is part of a live graph is undefined behaviour."""
        return self.data

    def item(self) -> float:
        """Return the value of a one-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_error()

    def _item_error(self) -> float:
        raise AutogradError(f"item() on tensor of shape {self.shape}")

    def astype(self, dtype: np.dtype | type, requires_grad: bool = False) -> "Tensor":
        """Return a copy with the requested dtype.

        The result is detached from the autodiff graph and, by default,
        does **not** require grad — the historical (and once silent)
        behaviour, now an explicit keyword so precision casts that
        should stay trainable leaves must say ``requires_grad=True``
        rather than losing the flag unnoticed.
        """
        return Tensor(
            self.data.astype(dtype), requires_grad=requires_grad, dtype=dtype
        )

    # ------------------------------------------------------------------
    # Operator overloads (delegate to the op registry).
    # ------------------------------------------------------------------
    def __add__(self, other: Any) -> "Tensor":
        return get_op("add")(self, other)

    __radd__ = __add__

    def __sub__(self, other: Any) -> "Tensor":
        return get_op("sub")(self, other)

    def __rsub__(self, other: Any) -> "Tensor":
        return get_op("sub")(other, self)

    def __mul__(self, other: Any) -> "Tensor":
        return get_op("mul")(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> "Tensor":
        return get_op("div")(self, other)

    def __rtruediv__(self, other: Any) -> "Tensor":
        return get_op("div")(other, self)

    def __neg__(self) -> "Tensor":
        return get_op("neg")(self)

    def __pow__(self, exponent: float) -> "Tensor":
        return get_op("pow")(self, exponent)

    def __matmul__(self, other: Any) -> "Tensor":
        return get_op("matmul")(self, other)

    def __getitem__(self, index: Any) -> "Tensor":
        return get_op("getitem")(self, index)

    # Comparisons return plain boolean arrays (non-differentiable).
    def __lt__(self, other: Any) -> np.ndarray:
        return self.data < _raw(other)

    def __le__(self, other: Any) -> np.ndarray:
        return self.data <= _raw(other)

    def __gt__(self, other: Any) -> np.ndarray:
        return self.data > _raw(other)

    def __ge__(self, other: Any) -> np.ndarray:
        return self.data >= _raw(other)

    # ------------------------------------------------------------------
    # Method-style access to common ops.
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        return get_op("sum")(self, axis=axis, keepdims=keepdims)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        return get_op("mean")(self, axis=axis, keepdims=keepdims)

    def max(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        return get_op("max")(self, axis=axis, keepdims=keepdims)

    def min(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        return get_op("min")(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return get_op("reshape")(self, shape)

    def transpose(self, *axes: int) -> "Tensor":
        return get_op("transpose")(self, axes or None)

    def flatten(self) -> "Tensor":
        return get_op("reshape")(self, (-1,))

    def abs(self) -> "Tensor":
        return get_op("abs")(self)

    def exp(self) -> "Tensor":
        return get_op("exp")(self)

    def log(self) -> "Tensor":
        return get_op("log")(self)

    def sqrt(self) -> "Tensor":
        return get_op("pow")(self, 0.5)

    def clip(self, low: float | None, high: float | None) -> "Tensor":
        return get_op("clip")(self, low, high)


def _raw(value: Any) -> Any:
    return value.data if isinstance(value, Tensor) else value


def ensure_tensor(value: Any, dtype: np.dtype | type | None = None) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, dtype=dtype)


# ----------------------------------------------------------------------
# Factory functions
# ----------------------------------------------------------------------
def zeros(shape: Sequence[int], requires_grad: bool = False, dtype: Any = None) -> Tensor:
    """Tensor of zeros with the given shape."""
    return Tensor(np.zeros(shape, dtype=dtype or _default_dtype()), requires_grad)


def ones(shape: Sequence[int], requires_grad: bool = False, dtype: Any = None) -> Tensor:
    """Tensor of ones with the given shape."""
    return Tensor(np.ones(shape, dtype=dtype or _default_dtype()), requires_grad)


def full(shape: Sequence[int], value: float, requires_grad: bool = False, dtype: Any = None) -> Tensor:
    """Constant tensor with the given fill value."""
    return Tensor(np.full(shape, value, dtype=dtype or _default_dtype()), requires_grad)


def randn(
    shape: Sequence[int],
    rng: np.random.Generator | None = None,
    requires_grad: bool = False,
    dtype: Any = None,
) -> Tensor:
    """Standard-normal tensor. Pass an explicit ``rng`` for reproducibility."""
    generator = rng if rng is not None else np.random.default_rng()
    data = generator.standard_normal(tuple(shape)).astype(dtype or _default_dtype())
    return Tensor(data, requires_grad)


def uniform(
    shape: Sequence[int],
    low: float = 0.0,
    high: float = 1.0,
    rng: np.random.Generator | None = None,
    requires_grad: bool = False,
    dtype: Any = None,
) -> Tensor:
    """Uniform tensor on ``[low, high)``."""
    generator = rng if rng is not None else np.random.default_rng()
    data = generator.uniform(low, high, tuple(shape)).astype(dtype or _default_dtype())
    return Tensor(data, requires_grad)
