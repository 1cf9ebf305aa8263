"""Opt-in runtime sanitizers for the autograd engine and nn layers.

Both sanitizers are context managers that *patch a single chokepoint*
while active and restore it on exit, so default-mode code pays nothing:

- :class:`FloatSanitizer` wraps :meth:`Tensor.from_op` — the funnel
  every differentiable op's output (and, optionally, every gradient its
  backward closure produces) flows through — and raises
  :class:`~repro.exceptions.SanitizerError` on the first NaN/Inf,
  naming the creating op and carrying the creation stack.
- :class:`PrecisionSanitizer` wraps the same :meth:`Tensor.from_op`
  chokepoint and raises on the first op output whose floating dtype
  disagrees with the active precision policy — the symptom of a silent
  up-cast (a float64 literal or NumPy default creeping into a float32
  graph) that would quietly forfeit the float32 mode's speedup.
- :class:`ShapeContract` wraps :meth:`Module.__call__` and enforces the
  layer-boundary contract: tensor inputs are floating dtype, outputs
  are tensors, and a given module maps a given input signature to a
  deterministic output signature.

Patching is process-global (by design: the thread-backed MPI ranks all
run under one interpreter, and a sanitizer session should observe every
rank).  Instances are reentrant but not safe to enter concurrently from
multiple threads — enter once around the whole parallel region.
"""

from __future__ import annotations

import traceback
from typing import Any

import numpy as np

from ..exceptions import SanitizerError
from ..nn.module import Module
from ..tensor.precision import default_dtype
from ..tensor.tensor import Tensor

__all__ = ["FloatSanitizer", "PrecisionSanitizer", "ShapeContract"]


def _creation_stack(skip: int = 2, limit: int = 14) -> str:
    """A trimmed stack trace pointing at the op call site."""
    frames = traceback.extract_stack()[:-skip]
    return "".join(traceback.format_list(frames[-limit:]))


def _check_finite(value: Any, op_name: str, where: str) -> None:
    array = np.asarray(value)
    if not np.issubdtype(array.dtype, np.floating):
        return
    if np.all(np.isfinite(array)):
        return
    nan = int(np.isnan(array).sum())
    inf = int(np.isinf(array).sum())
    raise SanitizerError(
        f"op {op_name!r} produced non-finite values in its {where} "
        f"({nan} NaN, {inf} Inf out of {array.size} elements); "
        f"creating-op stack:\n{_creation_stack()}"
    )


class FloatSanitizer:
    """Raise on the first NaN/Inf any tensor op produces.

    Parameters
    ----------
    check_gradients:
        Also check every gradient array produced by backward closures
        (the closure is wrapped at graph-construction time, so graphs
        built *inside* the context stay checked even if ``backward()``
        runs after exit).
    """

    def __init__(self, check_gradients: bool = True) -> None:
        self.check_gradients = check_gradients
        self._saved: Any = None

    def __enter__(self) -> "FloatSanitizer":
        self._saved = Tensor.__dict__["from_op"]
        original = Tensor.from_op  # resolved staticmethod -> plain function
        check_gradients = self.check_gradients

        def checked_from_op(data, parents, backward, op_name):
            _check_finite(data, op_name, "forward output")
            if check_gradients:
                inner = backward

                def checked_backward(grad):
                    grads = inner(grad)
                    for produced in grads:
                        if produced is not None:
                            _check_finite(produced, op_name, "gradient")
                    return grads

                backward = checked_backward
            return original(data, parents, backward, op_name)

        Tensor.from_op = staticmethod(checked_from_op)  # type: ignore[assignment]
        return self

    def __exit__(self, *exc_info: Any) -> None:
        setattr(Tensor, "from_op", self._saved)
        self._saved = None


class PrecisionSanitizer:
    """Raise on the first op output that deviates from the precision policy.

    While active, every array flowing out of :meth:`Tensor.from_op` must
    carry exactly the policy dtype (:func:`~repro.tensor.default_dtype`
    at check time, so entering the sanitizer and then switching modes
    works).  Non-floating outputs (comparison masks, argmax indices) are
    exempt.  Under float32 this catches the classic leak: one float64
    constant in an expression promotes the whole downstream graph back
    to float64 and silently forfeits the speedup.

    Parameters
    ----------
    check_gradients:
        Also check every gradient array produced by backward closures
        against the policy dtype (wrapped at graph-construction time,
        like :class:`FloatSanitizer`).
    """

    def __init__(self, check_gradients: bool = True) -> None:
        self.check_gradients = check_gradients
        self._saved: Any = None

    @staticmethod
    def _check_dtype(value: Any, op_name: str, where: str) -> None:
        array = np.asarray(value)
        if not np.issubdtype(array.dtype, np.floating):
            return
        expected = default_dtype()
        if array.dtype == expected:
            return
        raise SanitizerError(
            f"op {op_name!r} produced a {array.dtype} {where} under the "
            f"{np.dtype(expected).name} precision policy — a silent "
            f"{'up' if array.dtype.itemsize > expected.itemsize else 'down'}"
            f"-cast entered the graph; creating-op stack:\n{_creation_stack()}"
        )

    def __enter__(self) -> "PrecisionSanitizer":
        self._saved = Tensor.__dict__["from_op"]
        original = Tensor.from_op  # resolved staticmethod -> plain function
        check_gradients = self.check_gradients
        check_dtype = self._check_dtype

        def checked_from_op(data, parents, backward, op_name):
            check_dtype(data, op_name, "forward output")
            if check_gradients:
                inner = backward

                def checked_backward(grad):
                    grads = inner(grad)
                    for produced in grads:
                        if produced is not None:
                            check_dtype(produced, op_name, "gradient")
                    return grads

                backward = checked_backward
            return original(data, parents, backward, op_name)

        Tensor.from_op = staticmethod(checked_from_op)  # type: ignore[assignment]
        return self

    def __exit__(self, *exc_info: Any) -> None:
        setattr(Tensor, "from_op", self._saved)
        self._saved = None


class ShapeContract:
    """Enforce shape/dtype contracts at every nn layer boundary.

    While active, each :class:`Module` call is checked for:

    - tensor inputs with a floating dtype (integer/bool tensors at a
      layer boundary are almost always an accidental cast),
    - a :class:`Tensor` result (or tuple of tensors),
    - **shape determinism**: the same module instance fed the same
      input shapes must produce the same output shapes every time.  A
      drifting output shape is the classic symptom of a mis-sized halo
      or padding plan.
    """

    def __init__(self) -> None:
        self._saved: Any = None
        #: (module id, input signature) -> output signature
        self._observed: dict[tuple[int, tuple], tuple] = {}

    @staticmethod
    def _signature(values: tuple) -> tuple:
        return tuple(v.shape for v in values if isinstance(v, Tensor))

    def __enter__(self) -> "ShapeContract":
        self._saved = Module.__dict__["__call__"]
        original = self._saved
        observed = self._observed

        def checked_call(module: Module, *args: Any, **kwargs: Any):
            name = type(module).__name__
            for value in args:
                if isinstance(value, Tensor) and not np.issubdtype(
                    value.dtype, np.floating
                ):
                    raise SanitizerError(
                        f"{name} received a non-floating tensor input "
                        f"(dtype {value.dtype}); layer boundaries carry "
                        "floating-point fields"
                    )
            result = original(module, *args, **kwargs)
            outputs = result if isinstance(result, tuple) else (result,)
            for out in outputs:
                if not isinstance(out, Tensor):
                    raise SanitizerError(
                        f"{name} returned {type(out).__name__} instead of a "
                        "Tensor: layers must keep results on the autograd tape"
                    )
            in_sig = self._signature(args)
            out_sig = self._signature(outputs)
            key = (id(module), in_sig)
            previous = observed.get(key)
            if previous is None:
                observed[key] = out_sig
            elif previous != out_sig:
                raise SanitizerError(
                    f"{name} violated its shape contract: inputs {in_sig} "
                    f"previously produced {previous}, now {out_sig} — "
                    "non-deterministic layer geometry (mis-sized halo or "
                    "padding plan?)"
                )
            return result

        Module.__call__ = checked_call  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc_info: Any) -> None:
        setattr(Module, "__call__", self._saved)
        self._saved = None
        self._observed.clear()
