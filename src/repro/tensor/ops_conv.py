"""Differentiable 2-D convolution.

``conv2d`` takes stride 1 and padding < kernel only — every layer of
the paper's CNN, at every size, training and inference — and runs one
kernel path, the same with and without autograd: the strip kernels of
:mod:`~repro.tensor.blocked`.  The forward never materializes the
``(N*OH*OW, C*kh*kw)`` patch matrix: per strip of output rows it
copies the ``kw`` horizontal shifts of the input rows underneath and
reads the ``kh`` row shifts through strides, one GEMM per output
row.  The bias is one more tap of that GEMM, with and without
autograd, so per strip the forward is ``copyto`` → ``matmul(out=)``
and the fused activation's ``multiply`` → ``maximum`` → ``copyto``,
to which autograd adds one comparison: ``z >= 0`` into a bool mask.
The backward closure retains only the parents' arrays and, with
``activation``, that mask — one byte per output element, never the
pre-activation.  The backward *redraws* each strip for the weight
gradient and obtains the input gradient as a correlation of the
``(k-1-p)``-padded output gradient with the flipped, channel-swapped
weights through the same forward kernel — no column gradient, no
``col2im``.  That padding has to be non-negative, hence padding <
kernel.  The chain-rule multiply writes the output gradient
straight into that padded source, the calling thread's one warm
gradient buffer, so there is no pad copy.  Live memory per layer is
O(input + output) instead of O(N*OH*OW*C*kh*kw).

:func:`conv2d_reference` — monolithic im2col + one GEMM, backward
through the cached patch matrix and
:func:`~repro.tensor.im2col.col2im`, allocate-per-call — is not
reached from ``conv2d``.  It is the oracle the parity tests and
``benchmarks/bench_kernels.py`` compare the strip path against.

**Chaining.**  With ``border`` (set by :func:`~repro.nn.chain_borders`
for a conv followed by a conv) the strip path's result is the interior
of a fresh buffer whose zero border is the follower's padding, marked
on the returned tensor as :attr:`~repro.tensor.Tensor.bordered`.  A
conv whose input carries a fitting mark reads that buffer as its
padded source — in the no-grad forward, the training forward and the
weight gradient — instead of pad-copying the input; an unmarked input
is always pad-copied, whatever array it is a view of.

The strip path draws its scratch from the calling thread's arena when
there is one and allocates it otherwise; the arithmetic does not
depend on which, so results with and without a workspace are
bit-identical.  Nor does it depend on the strip budget (autograd calls
pass ``training=True`` and cut 512 KiB strips, the no-grad op 1 MiB
ones) or on the threads a rank's share of the cores hands the batch's
images to, each with a helper arena of the caller's
(:mod:`~repro.tensor.blocked`).

``conv2d`` accepts ``activation="leaky_relu"``, fusing the activation
into the op (the bias is already in the GEMM); the paper's network runs
it for every conv a ``LeakyReLU`` follows, in training and evaluation
alike.  Fused and unfused are bit-identical for every slope >= 0: the
forward's product equals the standalone op's ``z *
where(z >= 0, 1, slope)`` (the strip epilogue's ``max(z, slope*z)``,
``min`` for ``slope > 1``, ``z * (z >= 0)`` for slope 0, see
:func:`~repro.tensor.blocked.leaky_relu_inplace`), and the backward
scales gradients with that same array, rebuilt exactly from the mask.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..exceptions import ConfigurationError, ShapeError
from . import autograd, perf
from .blocked import (
    conv2d_forward_blocked,
    conv2d_weight_grad_blocked,
    for_each_image,
    zero_border,
)
from .im2col import col2im, conv_output_size, im2col
from .tensor import Tensor, ensure_tensor, register_op
from .workspace import Workspace, get_workspace, scratch

#: Arena slot namespaces of the no-grad and the autograd strip path.
#: Forward and backward share the latter: every buffer is dead when its
#: kernel returns, except the output gradient's source (``.gsrc``),
#: which lives across the backward's two kernels and which neither
#: touches.
_FORWARD_SLOTS, _TRAIN_SLOTS = "conv2d.blocked", "conv2d.train"


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
    border: int | tuple[int, int] = 0,
) -> Tensor:
    """2-D cross-correlation of ``x`` (N, C, H, W) with ``weight``
    (F, C, kh, kw), optional per-filter ``bias`` (F,).

    ``padding`` is symmetric zero padding; neighbour-data padding (the
    paper's preferred strategy) is applied by the caller before invoking
    this op with ``padding=0``.  ``activation="leaky_relu"`` fuses the
    paper's Eq. (2) activation into the GEMM epilogue — bit-identical
    to a standalone ``leaky_relu`` applied to the conv output, in both
    forward and backward.

    ``border`` chains two convs (:func:`~repro.nn.chain_borders` sets
    it): the result is the interior of a fresh buffer with that zero
    border, marked as :attr:`Tensor.bordered`, and a following conv
    whose padding equals the border reads that buffer as its padded
    input.

    ``stride`` must be 1 and ``padding`` smaller than the kernel
    (:class:`~repro.exceptions.ConfigurationError` otherwise).
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
    if activation is not None and not negative_slope >= 0.0:  # the epilogue's contract
        raise ConfigurationError(f"fused leaky_relu needs a slope >= 0, got {negative_slope}")
    n, c, h, w = tx.shape
    f, wc, kh, kw = tw.shape
    if wc != c:
        raise ShapeError(
            f"conv2d channel mismatch: input has {c} channels, weight expects {wc}"
        )
    if tb is not None and tb.shape != (f,):
        raise ShapeError(f"conv2d bias must have shape ({f},), got {tb.shape}")

    ph, pw = padding
    if stride != (1, 1) or ph >= kh or pw >= kw:
        raise ConfigurationError(
            f"conv2d takes stride 1 and padding < kernel, got stride {stride}, "
            f"padding {padding}, kernel {(kh, kw)}"
        )

    parents = (tx, tw) if tb is None else (tx, tw, tb)
    shape = (n, f, conv_output_size(h, kh, 1, ph), conv_output_size(w, kw, 1, pw))
    dtype = np.result_type(tx.dtype, tw.dtype)
    bh, bw = _pair(border)
    out = np.empty((n, f, shape[2] + 2 * bh, shape[3] + 2 * bw), dtype)
    source, source_padding = _chained_source(tx, padding)
    training = autograd.grad_enabled() and any(p.requires_grad for p in parents)
    # z >= 0, written by the training epilogue on the output's rows
    # while each strip is cache-hot; the backward keeps its interior.
    mask = np.empty(out.shape, bool) if training and activation is not None else None
    with perf.timed("conv2d"):
        conv2d_forward_blocked(
            source,
            tw.data,
            None if tb is None else tb.data,
            source_padding,
            activation=activation,
            negative_slope=negative_slope,
            workspace=get_workspace(),
            out=out,
            slot_prefix=_TRAIN_SLOTS if training else _FORWARD_SLOTS,
            training=training,
            mask=mask,
        )
    interior = _interior(out, shape)
    if training:
        backward = _strip_backward(
            tx, tw, tb, source, source_padding, padding,
            None if mask is None else _interior(mask, shape), dtype.type(negative_slope),
        )  # fmt: skip
        result = Tensor.from_op(interior, parents, backward, "conv2d")
    else:
        result = Tensor(interior)
    if out.shape != shape and _same_view(result.data, interior):
        result.bordered = out  # unless a precision-policy cast copied the data
    return result


def _interior(padded: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The centred ``(N, C, H, W)`` ``shape`` window of ``padded``."""
    bh, bw = (padded.shape[2] - shape[2]) // 2, (padded.shape[3] - shape[3]) // 2
    return padded[:, :, bh : bh + shape[2], bw : bw + shape[3]]


def _same_view(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a`` and ``b`` are the same elements in the same layout."""
    return (a.shape, a.strides, a.dtype, a.__array_interface__["data"][0]) == (
        b.shape, b.strides, b.dtype, b.__array_interface__["data"][0]
    )  # fmt: skip


def _chained_source(tx: Tensor, padding: tuple[int, int]) -> tuple[np.ndarray, tuple[int, int]]:
    """The array the strips are cut from and the padding still to apply:
    the zero-bordered buffer a leading conv wrote ``tx`` into, read as a
    valid convolution, when its border is ``padding`` and ``tx.data`` is
    still its interior; otherwise ``tx.data``, to be pad-copied."""
    padded, (n, c, h, w) = tx.bordered, tx.shape
    if (
        padded is not None
        and padded.shape == (n, c, h + 2 * padding[0], w + 2 * padding[1])
        and _same_view(tx.data, _interior(padded, tx.shape))
    ):
        return padded, (0, 0)
    return tx.data, padding


def _strip_backward(
    tx: Tensor,
    tw: Tensor,
    tb: Tensor | None,
    source: np.ndarray,
    source_padding: tuple[int, int],
    padding: tuple[int, int],
    mask: np.ndarray | None,
    slope: np.floating,
) -> Callable[[np.ndarray], tuple[np.ndarray | None, ...]]:
    """The backward of a strip-path ``conv2d`` whose forward cut its
    strips from ``source`` (``tx``'s data, or the zero-bordered buffer a
    leading conv wrote it into, with ``source_padding`` 0) and, with an
    activation of ``slope`` (in the forward's dtype, as the standalone
    op rounds it), wrote the pre-activation's ``z >= 0`` into ``mask``.

    The chain-rule multiply writes the output gradient into the calling
    thread's one gradient source (slot ``conv2d.train.gsrc``), bordered
    by ``q = k - 1 - p`` zeros when ``tx`` needs a gradient: the
    correlation giving it reads the source as a valid convolution.  The
    weight gradient copies it strip by strip.  The three gradients are
    freshly allocated.
    """
    weight = tw.data
    kh, kw = weight.shape[2:]

    def backward(grad: np.ndarray) -> tuple[np.ndarray | None, ...]:
        workspace = get_workspace()
        with perf.timed("conv2d.backward"):
            dtype = np.result_type(grad.dtype, tx.dtype, weight.dtype)
            n, f, oh, ow = grad.shape
            # d(out)/d(x) is a full correlation with the flipped kernel
            # whose in/out channels swap roles; cropping its result by p
            # is the same as padding the output gradient by k-1-p.
            qh, qw = (kh - 1 - padding[0], kw - 1 - padding[1]) if tx.requires_grad else (0, 0)
            shape = (n, f, oh + 2 * qh, ow + 2 * qw)
            padded = scratch(workspace, f"{_TRAIN_SLOTS}.gsrc", shape, dtype, shared=True)
            grad_out = _interior(padded, grad.shape)

            # One image at a time, in the work the rank's share hands
            # out: the border (another layer's interior, maybe) zeroed,
            # then the gradient copied in or, with an activation, the
            # standalone op's grad * where(z >= 0, 1, slope), the factor
            # rebuilt exactly from the mask's {0, 1} in a warm buffer:
            # the maximum with the slope, or when steep 1 - d -> {0,
            # slope} -> the maximum with 1.
            def fill_source(images: slice, arena: Workspace | None) -> None:
                scale = None
                if mask is not None:  # one buffer per thread
                    slot = f"{_TRAIN_SLOTS}.scale"
                    scale = scratch(arena, slot, (f, oh, ow), dtype, shared=True)
                for image in range(images.start, images.stop):
                    zero_border(padded[image], (oh, ow))
                    if scale is None:
                        np.copyto(grad_out[image], grad[image])
                        continue
                    np.copyto(scale, mask[image])
                    if slope > 1.0:
                        np.subtract(1.0, scale, out=scale)
                        np.multiply(scale, slope, out=scale)
                        np.maximum(scale, 1.0, out=scale)
                    else:
                        np.maximum(scale, slope, out=scale)
                    np.multiply(grad[image], scale, out=scale)
                    np.copyto(grad_out[image], scale)

            for_each_image(n, workspace, fill_source)
            grad_w = None
            if tw.requires_grad:
                grad_w = conv2d_weight_grad_blocked(
                    source, grad_out, (kh, kw), source_padding, workspace, _TRAIN_SLOTS
                )
            grad_x = None
            if tx.requires_grad:
                flipped = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
                grad_x = conv2d_forward_blocked(
                    padded,
                    flipped,
                    None,
                    (0, 0),
                    workspace=workspace,
                    slot_prefix=_TRAIN_SLOTS,
                    training=True,
                )
            if tb is None:
                return grad_x, grad_w
            grad_b = grad_out.sum(axis=(0, 2, 3)) if tb.requires_grad else None
            return grad_x, grad_w, grad_b

    return backward


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

    The oracle the strip kernels are tested and benchmarked against; it
    takes operands validated as ``conv2d`` validates them, and any
    stride and padding.  Every array is freshly allocated: under
    autograd the backward closure captures the patch matrix.
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
