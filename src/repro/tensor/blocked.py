"""Strip-mined conv2d kernels: the stride-1 convolution at every size.

A monolithic im2col materializes the full ``(N*OH*OW, C*kh*kw)`` patch
matrix — ~52 MiB at the paper's 256x256/4-channel/5x5 configuration,
472 MiB for the 16->6 layer of a 16x100x100 training batch — and even a
strip of it copies every input element ``kh*kw`` times.  The kernels
here copy ``kw`` times and let strides supply the ``kh`` row shifts.

For each batch image and each strip of output rows,
:func:`patch_strips` copies the ``kw`` horizontal shifts of the
``rows + kh - 1`` input rows under the strip into one small reused
buffer (sized to stay inside the L2 cache, filled in ``OW``-long
contiguous runs) and yields a strided view of it that is already a
stack of GEMM operands, consumed while cache-hot:

* :func:`conv2d_forward_blocked` — the forward, used by every stride-1
  ``conv2d`` with or without autograd and by
  :class:`~repro.core.inference.InferencePlan`: one stacked ``matmul``
  per strip, a ``(F, K) @ (K, OW)`` GEMM per output row landing in the
  ``(F, rows, OW)`` slab of the C-contiguous ``(N, F, OH, OW)`` result
  (no GEMM-output buffer, no transposed copy), then the
  bias/leaky-ReLU epilogue on that slab;
* :func:`conv2d_weight_grad_blocked` — the weight gradient, which
  *redraws* each strip and accumulates ``g_strip @ shifted`` for all
  ``kh`` row shifts in one stacked ``matmul``, so training retains no
  patch matrix;
* the input gradient, which is :func:`conv2d_forward_blocked` again:
  a correlation of the padded output gradient with the flipped,
  channel-swapped weights (see :func:`~repro.tensor.ops_conv.conv2d`).

Per output element this is the dot product over the same ``C*kh*kw``
values as the reference im2col kernel, summed in ``(dy, c, dx)``
instead of ``(c, dy, dx)`` order; the test suite pins equality with it
at ``allclose`` tolerances, not bitwise.  What *is* bit-pinned is the
kernel against itself: the strip size depends only on the shape, so the
op, the compiled plan and a call without an arena all issue the same
GEMMs.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..exceptions import ShapeError
from . import perf
from .im2col import conv_output_size
from .workspace import Workspace, scratch

__all__ = ["conv2d_forward_blocked", "conv2d_weight_grad_blocked", "patch_strips"]

#: Per-strip buffer budget: ``rows + kh - 1`` input rows of ``C*kw*OW``
#: elements, written once and read ``kh`` times, so it has to sit in L2.
#: That is the only bound: a GEMM operand is one output row whatever
#: the strip holds.  Swept on the bench workloads, 256 KiB is slower
#: everywhere; 1 MiB is ~10% faster on forward-only 256x128 blocks, as
#: much slower on the weight gradient at 100x100, and 5 MB more resident.
_TARGET_STRIP_BYTES = 1 << 19


def _strip_rows(ow: int, c: int, kh: int, kw: int, itemsize: int, oh: int) -> int:
    """Output rows per strip so its ``rows + kh - 1`` input rows meet the budget."""
    row_bytes = ow * c * kw * itemsize
    return max(1, min(oh, _TARGET_STRIP_BYTES // max(1, row_bytes) - (kh - 1)))


def _pad_input(
    x: np.ndarray, padding: tuple[int, int], workspace: Workspace | None, slot: str
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
    padded = workspace.request(f"{slot}.{ph}x{pw}", (n, c, h + 2 * ph, w + 2 * pw), x.dtype)
    padded[:, :, ph : ph + h, pw : pw + w] = x
    return padded


def patch_strips(
    x: np.ndarray,
    kernel: tuple[int, int],
    padding: tuple[int, int],
    dtype: np.dtype,
    workspace: Workspace | None,
    slot_prefix: str,
    tap_major: bool = False,
) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """Yield ``(image, r0, r1, operand)`` for every strip of output rows.

    Each strip copies the ``kw`` horizontal shifts of the ``r1 - r0 +
    kh - 1`` input rows under output rows ``r0:r1`` of one batch image
    of the stride-1 convolution into one buffer (arena slot
    ``{slot_prefix}.rows``) and yields a read-only GEMM operand view of
    it, valid only until the next strip is drawn:

    * row-major (the default), ``R[y, (c, dx), x] = xpad[c, r0 + y, x +
      dx]``: the ``kh`` buffer rows from ``y = j`` on are one contiguous
      ``(kh*C*kw, OW)`` matrix, taps in ``(dy, c, dx)`` order, and the
      operand stacks those overlapping windows as ``(rows, kh*C*kw,
      OW)``;
    * ``tap_major``, ``R[(c, dx), y, x]``: reading a tap's plane ``dy``
      rows later shifts all ``m = rows*OW`` positions at once, and the
      operand is ``(kh, m, C*kw)``.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    oh = conv_output_size(h, kh, 1, padding[0])
    ow = conv_output_size(w, kw, 1, padding[1])
    x = _pad_input(x, padding, workspace, f"{slot_prefix}.padded")
    sn, sc, sy, sx = x.strides
    # (N, H, C, kw, OW) zero-copy view of every input row's kw shifts.
    shifts = as_strided(x, (n, x.shape[2], c, kw, ow), (sn, sy, sc, sx, sx), writeable=False)
    step = np.dtype(dtype).itemsize
    rows = _strip_rows(ow, c, kh, kw, step, oh)
    rin, taps = rows + kh - 1, c * kw
    buffer = scratch(workspace, f"{slot_prefix}.rows", (rin * taps * ow,), dtype)
    if tap_major:
        strip = buffer.reshape(c, kw, rin, ow).transpose(2, 0, 1, 3)
        shape, strides = (kh, rows * ow, taps), (ow * step, step, rin * ow * step)
    else:
        strip = buffer.reshape(rin, c, kw, ow)
        shape, strides = (rows, kh * taps, ow), (taps * ow * step, ow * step, step)
    operand = as_strided(buffer, shape, strides, writeable=False)
    for image in range(n):
        for r0 in range(0, oh, rows):
            r1 = min(oh, r0 + rows)
            with perf.timed("im2col"):
                np.copyto(strip[: r1 - r0 + kh - 1], shifts[image, r0 : r1 + kh - 1])
            # The ragged last strip is a prefix of the same view.
            yield image, r0, r1, (
                operand[:, : (r1 - r0) * ow] if tap_major else operand[: r1 - r0]
            )


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
        # Taps repacked (dy, c, dx), the order kh consecutive strip
        # rows lay them out in; re-read each call (training updates it).
        wmat = scratch(workspace, f"{slot_prefix}.wmat", (f, kh, c, kw), compute)
        np.copyto(wmat, weight.transpose(0, 2, 1, 3))
        wmat = wmat.reshape(f, kh * c * kw)
        if out is None:
            # Never reached from a warmed-up InferencePlan: the plan
            # binds the step output to an arena slot.
            out = np.empty((n, f, oh, ow), dtype=compute)  # noqa: REP012
        elif out.shape != (n, f, oh, ow) or not out.flags.c_contiguous:
            raise ShapeError(
                f"blocked conv needs a C-contiguous {(n, f, oh, ow)} destination, "
                f"got shape {out.shape}"
            )
        scaled_strip = None
        if activation is not None:
            rows = _strip_rows(ow, c, kh, kw, compute.itemsize, oh)
            scaled_strip = scratch(workspace, f"{slot_prefix}.scaled", (f, rows, ow), compute)
        bias_col = bias.reshape(f, 1, 1) if bias is not None else None
        for image, r0, r1, stack in patch_strips(
            x, (kh, kw), padding, compute, workspace, slot_prefix
        ):
            # One (F, K) @ (K, OW) GEMM per output row, looped by NumPy
            # in C, each landing in its row of the strip's (F, rows,
            # OW) slab of the result: rows of one GEMM's output are
            # OH*OW apart, which BLAS takes as a leading dimension.
            dest = out[image, :, r0:r1, :]
            np.matmul(wmat, stack, out=dest.transpose(1, 0, 2))
            if bias_col is not None:
                np.add(dest, bias_col, out=dest)
            if activation is not None:
                # Contiguous OW-long inner loops on the cache-hot slab;
                # two dense vector ops beat NumPy's buffered
                # where=-masked multiply several times over.
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
    output.  Each strip is redrawn tap-major (into the arena slot the
    forward used, when ``slot_prefix`` and dtypes match), where row
    shift ``dy`` of all its ``m = rows*OW`` output positions is the
    strip itself read ``dy*OW`` elements later: one stacked matmul
    ``g_strip (F, m) @ shifted (kh, m, C*kw)`` gives all ``kh`` shifts.
    The strip-wise sum reassociates the reference ``gmat.T @ cols``
    reduction, so the two agree to roundoff, not bitwise.  Returns a
    freshly allocated contiguous ``(F, C, kh, kw)`` array.
    """
    n, f, oh, ow = grad.shape
    c = x.shape[1]
    kh, kw = kernel
    if not grad.flags.c_contiguous:
        raise ShapeError("blocked weight gradient needs a C-contiguous output gradient")
    dtype = np.result_type(x.dtype, grad.dtype)
    grad_rows = grad.reshape(n, f, oh * ow)
    grad_w = np.zeros((kh, f, c * kw), dtype=dtype)
    partial = scratch(workspace, f"{slot_prefix}.wgrad", grad_w.shape, dtype)
    for image, r0, r1, shifted in patch_strips(
        x, kernel, padding, dtype, workspace, slot_prefix, tap_major=True
    ):
        np.matmul(grad_rows[image, :, r0 * ow : r1 * ow], shifted, out=partial)
        grad_w += partial
    return np.ascontiguousarray(grad_w.reshape(kh, f, c, kw).transpose(1, 2, 0, 3))
