"""Differentiable 2-D convolution and transposed convolution.

``conv2d`` picks its kernel by one rule, the same with and without
autograd:

* **stride 1 and padding < kernel** (every layer of the paper's CNN,
  at every size, training and inference) — the strip kernels of
  :mod:`~repro.tensor.blocked`.  The forward never materializes the
  ``(N*OH*OW, C*kh*kw)`` patch matrix: per strip of output rows it
  copies the ``kw`` horizontal shifts of the input rows underneath and
  reads the ``kh`` row shifts through strides, one GEMM per output
  row.  The bias is one more tap of that GEMM, with and without
  autograd, so per strip the forward is ``copyto`` → ``matmul(out=)``
  and the fused activation's ``multiply`` → ``maximum``, which under
  autograd also writes the activation's derivative; the backward
  closure retains only the parents' arrays and, with ``activation``,
  that one output-sized derivative — never the pre-activation.
  The backward *redraws* each strip for the weight gradient and
  obtains the input gradient as a correlation of the
  ``(k-1-p)``-padded output gradient with the flipped, channel-swapped
  weights through the same forward kernel — no column gradient, no
  ``col2im``.  Live memory per layer is O(input + output) instead of
  O(N*OH*OW*C*kh*kw).
* **everything else** (:func:`conv2d_reference`) — monolithic im2col +
  one GEMM, backward through the cached patch matrix and
  :func:`~repro.tensor.im2col.col2im`, allocate-per-call.  Serves
  stride != 1 and padding >= kernel (the correlation-form input
  gradient pads by ``k-1-p``, which has to be non-negative), and is
  what the parity tests and gradcheck compare the strip path against.

The strip path draws its scratch from the calling thread's arena when
there is one and allocates it otherwise; the arithmetic does not
depend on which, so results with and without a workspace are
bit-identical.  Nor does it depend on the strip budget: autograd calls
pass ``training=True`` and cut 512 KiB strips, the no-grad op 1 MiB
ones.

The transposed convolution is implemented as the exact adjoint of the
convolution, which is what the paper's "de-convolutional layer"
alternative (Sec. III, option 4) requires.

``conv2d`` accepts ``activation="leaky_relu"``, fusing the activation
into the op (the bias is already in the GEMM on the strip path, and a
separate add on the reference path); the paper's network runs it for
every conv a ``LeakyReLU`` follows, in training and evaluation alike.
Fused and unfused are bit-identical on every path and for every slope
>= 0: the forward multiplies by the exact ``where(z >= 0, 1, slope)``
array the standalone op would build (the no-grad strip epilogue's
``max(z, slope*z)``, ``min`` for ``slope > 1``, equals that product),
and the backward scales gradients with that same array.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..exceptions import ConfigurationError, ShapeError
from . import autograd, perf
from .blocked import conv2d_forward_blocked, conv2d_weight_grad_blocked
from .im2col import col2im, conv_output_size, im2col
from .tensor import Tensor, ensure_tensor, register_op
from .workspace import get_workspace, scratch

#: Arena slot namespace of the autograd strip path (forward and
#: backward share it: every buffer is dead when its kernel returns).
_TRAIN_SLOTS = "conv2d.train"


def _pair(value: int | tuple[int, int]) -> tuple[int, int]:
    if isinstance(value, tuple):
        return (int(value[0]), int(value[1]))
    return (int(value), int(value))


@register_op("conv2d")
def conv2d(
    x: Any,
    weight: Any,
    bias: Any | None = None,
    stride: int | tuple[int, int] = 1,
    padding: int | tuple[int, int] = 0,
    activation: str | None = None,
    negative_slope: float = 0.01,
) -> Tensor:
    """2-D cross-correlation of ``x`` (N, C, H, W) with ``weight``
    (F, C, kh, kw), optional per-filter ``bias`` (F,).

    ``padding`` is symmetric zero padding; neighbour-data padding (the
    paper's preferred strategy) is applied by the caller before invoking
    this op with ``padding=0``.  ``activation="leaky_relu"`` fuses the
    paper's Eq. (2) activation into the GEMM epilogue — bit-identical
    to a standalone ``leaky_relu`` applied to the conv output, in both
    forward and backward.
    """
    tx, tw = ensure_tensor(x), ensure_tensor(weight)
    tb = ensure_tensor(bias) if bias is not None else None
    stride = _pair(stride)
    padding = _pair(padding)

    if tx.ndim != 4:
        raise ShapeError(f"conv2d input must be (N, C, H, W), got {tx.shape}")
    if tw.ndim != 4:
        raise ShapeError(f"conv2d weight must be (F, C, kh, kw), got {tw.shape}")
    if activation not in (None, "leaky_relu"):
        raise ConfigurationError(
            f"conv2d supports activation=None or 'leaky_relu', got {activation!r}"
        )
    c = tx.shape[1]
    f, wc, kh, kw = tw.shape
    if wc != c:
        raise ShapeError(
            f"conv2d channel mismatch: input has {c} channels, weight expects {wc}"
        )
    if tb is not None and tb.shape != (f,):
        raise ShapeError(f"conv2d bias must have shape ({f},), got {tb.shape}")

    parents = (tx, tw) if tb is None else (tx, tw, tb)
    ph, pw = padding

    if stride != (1, 1) or ph >= kh or pw >= kw:
        return conv2d_reference(
            tx, tw, tb, stride, padding, activation, negative_slope, parents
        )
    if autograd.grad_enabled() and any(p.requires_grad for p in parents):
        return _conv2d_strips(tx, tw, tb, padding, activation, negative_slope, parents)
    with perf.timed("conv2d"):
        out = conv2d_forward_blocked(
            tx.data,
            tw.data,
            None if tb is None else tb.data,
            padding,
            activation=activation,
            negative_slope=negative_slope,
            workspace=get_workspace(),
        )
    return Tensor(out)


def _conv2d_strips(
    tx: Tensor,
    tw: Tensor,
    tb: Tensor | None,
    padding: tuple[int, int],
    activation: str | None,
    negative_slope: float,
    parents: tuple[Tensor, ...],
) -> Tensor:
    """Stride-1 ``conv2d`` under autograd on the strip kernels.

    Scratch (padded input, row-patch strip, padded output gradient) comes
    from the calling thread's arena under the ``conv2d.train.*`` slots
    and is dead when each kernel returns; everything that escapes — the
    output, the activation derivative and the three gradients — is
    freshly allocated.
    """
    x, weight = tx.data, tw.data
    n, _, h, w = x.shape
    f, _, kh, kw = weight.shape
    act_scale = None
    if activation is not None:
        # where(z >= 0, 1, slope), written by the strip epilogue while
        # each slab is cache-hot; the backward keeps it.
        oh, ow = conv_output_size(h, kh, 1, padding[0]), conv_output_size(w, kw, 1, padding[1])
        act_scale = np.empty((n, f, oh, ow), np.result_type(x.dtype, weight.dtype))
    with perf.timed("conv2d"):
        out = conv2d_forward_blocked(
            x,
            weight,
            None if tb is None else tb.data,
            padding,
            activation=activation,
            negative_slope=negative_slope,
            workspace=get_workspace(),
            slot_prefix=_TRAIN_SLOTS,
            training=True,
            derivative=act_scale,
        )

    def backward(grad: np.ndarray):
        workspace = get_workspace()
        with perf.timed("conv2d.backward"):
            if act_scale is None:
                grad = np.ascontiguousarray(grad)
            else:
                # Fused activation backward: the chain-rule multiply
                # the standalone op would apply, into arena scratch.
                buffer = scratch(
                    workspace,
                    f"{_TRAIN_SLOTS}.grad",
                    grad.shape,
                    np.result_type(grad.dtype, act_scale.dtype),
                )
                grad = np.multiply(grad, act_scale, out=buffer)
            grad_w = None
            if tw.requires_grad:
                grad_w = conv2d_weight_grad_blocked(
                    x, grad, (kh, kw), padding, workspace, _TRAIN_SLOTS
                )
            grad_x = None
            if tx.requires_grad:
                # d(out)/d(x) is a full correlation with the flipped
                # kernel whose in/out channels swap roles; cropping its
                # result by p is the same as padding grad by k-1-p.
                flipped = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
                grad_x = conv2d_forward_blocked(
                    grad,
                    flipped,
                    None,
                    (kh - 1 - padding[0], kw - 1 - padding[1]),
                    workspace=workspace,
                    slot_prefix=_TRAIN_SLOTS,
                    training=True,
                )
            if tb is None:
                return grad_x, grad_w
            grad_b = grad.sum(axis=(0, 2, 3)) if tb.requires_grad else None
            return grad_x, grad_w, grad_b

    return Tensor.from_op(out, parents, backward, "conv2d")


def leaky_relu_scale(z: np.ndarray, negative_slope: float = 0.01) -> np.ndarray:
    """The leaky-ReLU derivative mask ``where(z >= 0, 1, slope)``.

    Built once by the reference ``conv2d`` forward and reused by its
    backward, so both directions scale with the exact same array.  The
    mask is built in ``z``'s own dtype: the float64 values are
    unchanged, and a float32 backward pass would otherwise be silently
    promoted to float64 by the float64 array ``np.where`` produces from
    Python-float branches.
    """
    scale = np.empty_like(z)
    scale[...] = negative_slope
    np.copyto(scale, 1.0, where=z >= 0.0)
    return scale


def conv2d_reference(
    tx: Tensor,
    tw: Tensor,
    tb: Tensor | None,
    stride: tuple[int, int],
    padding: tuple[int, int],
    activation: str | None,
    negative_slope: float,
    parents: tuple[Tensor, ...],
) -> Tensor:
    """Monolithic ``conv2d``: full patch matrix, one GEMM, ``col2im``.

    Takes validated operands (``conv2d`` is the public entry point).
    Every array is freshly allocated: under autograd the backward
    closure captures the patch matrix, and without it this is the
    correctness path, not a fast one.
    """
    n, c, h, w = tx.shape
    f, _, kh, kw = tw.shape
    with perf.timed("conv2d"):
        cols, (oh, ow) = im2col(tx.data, (kh, kw), stride, padding)
        wmat = tw.data.reshape(f, c * kh * kw)
        out = cols @ wmat.T  # (N*OH*OW, F)
        if tb is not None:
            out += tb.data
        act_scale = None
        if activation is not None:
            # Bit-identical to the standalone leaky_relu op (z * 1.0 is
            # z); the derivative array is kept for backward.
            act_scale = leaky_relu_scale(out, negative_slope)
            out *= act_scale
        out = out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)

    def backward(grad: np.ndarray):
        with perf.timed("conv2d.backward"):
            # grad: (N, F, OH, OW) -> (N*OH*OW, F)
            gmat = grad.transpose(0, 2, 3, 1).reshape(n * oh * ow, f)
            if act_scale is not None:
                gmat = gmat * act_scale
            grad_w = (
                (gmat.T @ cols).reshape(f, c, kh, kw) if tw.requires_grad else None
            )
            grad_x = None
            if tx.requires_grad:
                gcols = gmat @ wmat  # (N*OH*OW, C*kh*kw)
                grad_x = col2im(gcols, (n, c, h, w), (kh, kw), stride, padding)
            if tb is None:
                return grad_x, grad_w
            grad_b = gmat.sum(axis=0) if tb.requires_grad else None
            return grad_x, grad_w, grad_b

    return Tensor.from_op(out, parents, backward, "conv2d")


@register_op("conv_transpose2d")
def conv_transpose2d(
    x: Any,
    weight: Any,
    bias: Any | None = None,
    stride: int | tuple[int, int] = 1,
    padding: int | tuple[int, int] = 0,
) -> Tensor:
    """Transposed 2-D convolution (adjoint of :func:`conv2d`).

    ``weight`` has shape ``(C_in, C_out, kh, kw)`` (PyTorch convention).
    The output spatial size is ``(H - 1) * stride - 2 * padding + k``.
    The op stays allocation-naive even under ``no_grad`` because its
    ``col2im`` result escapes as the op output; the workspace-backed
    variant lives in :class:`~repro.core.inference.InferencePlan`,
    which owns the buffer lifetimes and copies the final result out.
    """
    tx, tw = ensure_tensor(x), ensure_tensor(weight)
    tb = ensure_tensor(bias) if bias is not None else None
    stride = _pair(stride)
    padding = _pair(padding)

    if tx.ndim != 4:
        raise ShapeError(f"conv_transpose2d input must be (N, C, H, W), got {tx.shape}")
    n, c, h, w = tx.shape
    wc, f, kh, kw = tw.shape
    if wc != c:
        raise ShapeError(
            f"conv_transpose2d channel mismatch: input {c}, weight expects {wc}"
        )
    sh, sw = stride
    ph, pw = padding
    oh = (h - 1) * sh - 2 * ph + kh
    ow = (w - 1) * sw - 2 * pw + kw
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"conv_transpose2d output size ({oh}, {ow}) <= 0")
    if tb is not None and tb.shape != (f,):
        raise ShapeError(f"conv_transpose2d bias must have shape ({f},), got {tb.shape}")

    # Forward of the transpose-conv == input-gradient of a conv whose
    # input has shape (n, f, oh, ow): scatter rows of x @ W into the
    # output image with col2im.
    with perf.timed("conv_transpose2d"):
        wmat = tw.data.reshape(c, f * kh * kw)
        xmat = tx.data.transpose(0, 2, 3, 1).reshape(n * h * w, c)
        cols = xmat @ wmat  # (N*H*W, F*kh*kw)
        out = col2im(cols, (n, f, oh, ow), (kh, kw), stride, padding)
        if tb is not None:
            out = out + tb.data[None, :, None, None]

    parents = (tx, tw) if tb is None else (tx, tw, tb)

    def backward(grad: np.ndarray):
        # Adjoint of col2im is im2col of the gradient image.
        gcols, _ = im2col(grad, (kh, kw), stride, padding)  # (N*H*W, F*kh*kw)
        grad_x = None
        if tx.requires_grad:
            gx = gcols @ wmat.T  # (N*H*W, C)
            grad_x = gx.reshape(n, h, w, c).transpose(0, 3, 1, 2)
        grad_w = (xmat.T @ gcols).reshape(c, f, kh, kw) if tw.requires_grad else None
        if tb is None:
            return grad_x, grad_w
        grad_b = grad.sum(axis=(0, 2, 3)) if tb.requires_grad else None
        return grad_x, grad_w, grad_b

    return Tensor.from_op(out, parents, backward, "conv_transpose2d")
