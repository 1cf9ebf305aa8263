"""Strip-mined conv2d kernels: the stride-1 convolution at every size.

A monolithic im2col materializes the full ``(N*OH*OW, C*kh*kw)`` patch
matrix — ~52 MiB at the paper's 256x256/4-channel/5x5 configuration,
472 MiB for the 16->6 layer of a 16x100x100 training batch — then
streams it through one GEMM and one full-size transposed copy.  Every
element makes three trips through main memory, and its position-major
layout copies patches in ``kw``-long runs, which is what makes it slow
on *small* images too.

The kernels here strip-mine the output rows instead.  For each batch
image and each strip of output rows, :func:`patch_strips` copies just
that strip's patches into one small reused buffer (sized to stay
inside the L2 cache) and the caller consumes it while it is cache-hot.
The buffer is **K-major** — ``(C*kh*kw, rows*OW)``, one row per kernel
tap — for two reasons: the patch copy then runs ``OW``-long contiguous
inner loops instead of ``kw``-long ones, and ``weight @ cols`` lands
directly in the ``(F, rows, OW)`` slab of the C-contiguous
``(N, F, OH, OW)`` result, so there is no GEMM-output buffer and no
transposed copy.  A small image is simply one strip.

Three consumers share the strips:

* :func:`conv2d_forward_blocked` — the forward (``weight @ cols`` plus
  the bias/leaky-ReLU epilogue on the cache-hot slab), used by every
  stride-1 ``conv2d`` with or without autograd and by
  :class:`~repro.core.inference.InferencePlan`;
* :func:`conv2d_weight_grad_blocked` — the weight gradient, which
  *recomputes* each strip and accumulates ``g_strip @ cols_strip.T``,
  so training retains no patch matrix;
* the input gradient, which is :func:`conv2d_forward_blocked` again:
  a correlation of the padded output gradient with the flipped,
  channel-swapped weights (see :func:`~repro.tensor.ops_conv.conv2d`).

The arithmetic per output element is the identical dot product over
the same ``C*kh*kw`` values as the reference im2col kernel; the test
suite pins equality with it at strict ``allclose`` tolerances rather
than bitwise, since BLAS is free to schedule the smaller GEMMs
differently.  What *is* bit-pinned is the kernel against itself: the
strip size depends only on the shape, so the op, the compiled plan and
a call without an arena all issue the same GEMMs.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..exceptions import ShapeError
from . import perf
from .im2col import conv_output_size
from .workspace import Workspace, scratch

__all__ = [
    "conv2d_forward_blocked",
    "conv2d_weight_grad_blocked",
    "patch_strips",
]

#: Per-strip patch buffer budget.  It has to sit inside a typical L2,
#: and the strip is also the wide operand of a GEMM whose other side
#: has only F (4-16) rows: measured on the Table-I shapes, 64k-128k
#: patch elements per strip is the flat optimum at both precisions,
#: while 256k elements (1 MiB of float32) falls off OpenBLAS's
#: skinny-matrix path and runs the same GEMMs ~3x slower.
_TARGET_STRIP_BYTES = 1 << 19


def _strip_rows(ow: int, c: int, kh: int, kw: int, itemsize: int, oh: int) -> int:
    """Output rows per strip so the patch buffer meets the L2 budget."""
    row_bytes = ow * c * kh * kw * itemsize
    return max(1, min(oh, _TARGET_STRIP_BYTES // max(1, row_bytes)))


def _pad_input(
    x: np.ndarray,
    padding: tuple[int, int],
    workspace: Workspace | None,
    slot: str,
) -> np.ndarray:
    """``x`` with symmetric zero ``padding`` on its two spatial axes.

    With a workspace the padded copy lives in an arena buffer whose
    slot name encodes the padding split: two callers whose padded
    shapes coincide but whose interiors differ must not share a
    buffer, because only the interior is ever rewritten (the borders
    stay zero from creation).
    """
    ph, pw = padding
    if not (ph or pw):
        return x
    n, c, h, w = x.shape
    if workspace is None:
        # No arena (``workspace_disabled``): never taken by a warmed-up
        # InferencePlan.
        return np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))  # noqa: REP012
    padded = workspace.request(
        f"{slot}.{ph}x{pw}", (n, c, h + 2 * ph, w + 2 * pw), x.dtype
    )
    padded[:, :, ph : ph + h, pw : pw + w] = x
    return padded


def patch_strips(
    x: np.ndarray,
    kernel: tuple[int, int],
    padding: tuple[int, int],
    dtype: np.dtype,
    workspace: Workspace | None,
    slot_prefix: str,
) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """Yield ``(image, r0, r1, cols)`` for every strip of output rows.

    ``cols`` is the K-major ``(C*kh*kw, (r1 - r0) * OW)`` patch matrix
    of output rows ``r0:r1`` of one batch image of the stride-1
    convolution, taps flattened in ``(C, kh, kw)`` order like the
    reference im2col's columns.  Every strip is a view into the same
    buffer (arena slot ``{slot_prefix}.cols``), valid only until the
    next one is drawn.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    oh = conv_output_size(h, kh, 1, padding[0])
    ow = conv_output_size(w, kw, 1, padding[1])
    x = _pad_input(x, padding, workspace, f"{slot_prefix}.padded")
    # (N, C, kh, kw, OH, OW) zero-copy view of every receptive field,
    # already in the tap-major order the strips are copied in.
    sn, sc, sy, sx = x.strides
    windows = as_strided(
        x, (n, c, kh, kw, oh, ow), (sn, sc, sy, sx, sy, sx), writeable=False
    )
    taps = c * kh * kw
    rows = _strip_rows(ow, c, kh, kw, np.dtype(dtype).itemsize, oh)
    buffer = scratch(workspace, f"{slot_prefix}.cols", (taps * rows * ow,), dtype)
    for image in range(n):
        fields = windows[image]
        for r0 in range(0, oh, rows):
            r1 = min(oh, r0 + rows)
            # A contiguous prefix of the buffer, so the ragged last
            # strip is as dense a GEMM operand as the full ones.
            cols = buffer[: taps * (r1 - r0) * ow]
            with perf.timed("im2col"):
                np.copyto(
                    cols.reshape(c, kh, kw, r1 - r0, ow), fields[:, :, :, r0:r1]
                )
            yield image, r0, r1, cols.reshape(taps, (r1 - r0) * ow)


def conv2d_forward_blocked(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    padding: tuple[int, int],
    activation: str | None = None,
    negative_slope: float = 0.01,
    workspace: Workspace | None = None,
    out: np.ndarray | None = None,
    slot_prefix: str = "conv2d.blocked",
) -> np.ndarray:
    """Strip-mined stride-1 conv2d forward; nothing is kept for a backward pass.

    ``x`` is ``(N, C, H, W)``, ``weight`` ``(F, C, kh, kw)``, ``bias``
    ``(F,)`` or ``None``; ``padding`` is symmetric zero padding.  ``out``
    is an optional pre-bound C-contiguous ``(N, F, OH, OW)`` destination
    (the :class:`InferencePlan` passes an arena buffer so warmed-up
    steps stay allocation-free).  Returns the C-contiguous result.

    The fused activation is ``max(z, slope * z)`` and therefore a
    leaky ReLU only for ``0 <= slope <= 1``, where it is bit-identical
    to the standalone op's ``z * where(z >= 0, 1, slope)``: non-negative
    lanes win the max and keep ``z`` untouched (ties at ``±0.0`` compare
    equal bitwise), negative lanes lose to the exact same IEEE product.
    The autograd path calls this kernel with ``activation=None`` and
    scales exactly.
    """
    n, c, h, w = x.shape
    f = weight.shape[0]
    kh, kw = weight.shape[2], weight.shape[3]
    oh = conv_output_size(h, kh, 1, padding[0])
    ow = conv_output_size(w, kw, 1, padding[1])
    compute = np.result_type(x.dtype, weight.dtype)
    with perf.timed("conv2d.blocked"):
        wmat = weight.reshape(f, c * kh * kw)
        if out is None:
            # Never reached from a warmed-up InferencePlan: the plan
            # binds the step output to an arena slot.
            out = np.empty((n, f, oh, ow), dtype=compute)  # noqa: REP012
        elif out.shape != (n, f, oh, ow) or not out.flags.c_contiguous:
            raise ShapeError(
                f"blocked conv needs a C-contiguous {(n, f, oh, ow)} destination, "
                f"got shape {out.shape}"
            )
        out_rows = out.reshape(n, f, oh * ow)
        scaled_strip = None
        if activation is not None:
            rows = _strip_rows(ow, c, kh, kw, compute.itemsize, oh)
            scaled_strip = scratch(
                workspace, f"{slot_prefix}.scaled", (f, rows, ow), compute
            )
        bias_col = bias.reshape(f, 1, 1) if bias is not None else None
        for image, r0, r1, cols in patch_strips(
            x, (kh, kw), padding, compute, workspace, slot_prefix
        ):
            # (F, K) @ (K, m) straight into the strip's (F, rows, OW)
            # slab of the result: its rows are OH*OW apart, which BLAS
            # takes as a leading dimension.
            np.matmul(wmat, cols, out=out_rows[image, :, r0 * ow : r1 * ow])
            dest = out[image, :, r0:r1, :]
            if bias_col is not None:
                np.add(dest, bias_col, out=dest)
            if activation is not None:
                # In (F, rows, OW) layout the bias broadcasts along the
                # outermost axis, so every ufunc runs contiguous
                # OW-long inner loops on the cache-hot slab; two dense
                # vector ops beat NumPy's buffered where=-masked
                # multiply several times over.
                with perf.timed("fused.bias_leaky_relu"):
                    scaled = scaled_strip[:, : r1 - r0, :]
                    np.multiply(dest, negative_slope, out=scaled)
                    np.maximum(dest, scaled, out=dest)
    return out


def conv2d_weight_grad_blocked(
    x: np.ndarray,
    grad: np.ndarray,
    kernel: tuple[int, int],
    padding: tuple[int, int],
    workspace: Workspace | None,
    slot_prefix: str,
) -> np.ndarray:
    """Weight gradient of a stride-1 conv2d without a retained patch matrix.

    ``x`` is the ``(N, C, H, W)`` forward input and ``grad`` the
    C-contiguous ``(N, F, OH, OW)`` gradient of the pre-activation
    output.  Each patch strip is recomputed (into the arena slot the
    forward used, when ``slot_prefix`` and dtypes match) and
    contributes ``g_strip (F, m) @ cols_strip.T (m, C*kh*kw)``; the
    strip-wise sum reassociates the reference ``gmat.T @ cols``
    reduction, so the two agree to roundoff, not bitwise.  Returns a
    freshly allocated ``(F, C, kh, kw)`` array.
    """
    n, f, oh, ow = grad.shape
    c = x.shape[1]
    kh, kw = kernel
    if not grad.flags.c_contiguous:
        raise ShapeError("blocked weight gradient needs a C-contiguous output gradient")
    dtype = np.result_type(x.dtype, grad.dtype)
    grad_rows = grad.reshape(n, f, oh * ow)
    grad_w = np.zeros((f, c * kh * kw), dtype=dtype)
    partial = scratch(workspace, f"{slot_prefix}.wgrad", grad_w.shape, dtype)
    for image, r0, r1, cols in patch_strips(
        x, kernel, padding, dtype, workspace, slot_prefix
    ):
        np.matmul(grad_rows[image, :, r0 * ow : r1 * ow], cols.T, out=partial)
        grad_w += partial
    return grad_w.reshape(f, c, kh, kw)
