"""Vectorized im2col / col2im kernels used by the convolution ops.

Following the HPC guidance for NumPy code, the patch extraction is a
zero-copy ``sliding_window_view`` followed by a single reshape-to-GEMM,
so the heavy lifting happens inside BLAS.  ``col2im`` (the adjoint)
scatter-adds with a short loop over the *kernel* footprint — at most
``kh*kw`` iterations (25 for the paper's 5×5 kernels) — instead of a
Python loop over pixels.

The :class:`~repro.core.inference.InferencePlan`'s
transposed-convolution step binds its own scatter base and calls
:func:`scatter_patches`, the scatter itself.

These monolithic kernels are the *reference* pair, allocate-per-call:
every stride-1 convolution runs the strip kernels of
:mod:`~repro.tensor.blocked`, which never materialize the full patch
matrix and share only :func:`conv_output_size` with this module.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..exceptions import ShapeError
from . import perf


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"convolution output size {out} <= 0 "
            f"(input {size}, kernel {kernel}, stride {stride}, padding {padding})"
        )
    return out


def im2col(
    x: np.ndarray,
    kernel: tuple[int, int],
    stride: tuple[int, int] = (1, 1),
    padding: tuple[int, int] = (0, 0),
) -> tuple[np.ndarray, tuple[int, int]]:
    """Unfold sliding patches of ``x`` into a GEMM-ready matrix.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel, stride, padding:
        Per-axis (height, width) convolution parameters; padding is
        symmetric zero padding.

    Returns
    -------
    cols:
        Array of shape ``(N * OH * OW, C * kh * kw)`` where each row is
        one receptive field, flattened in ``(C, kh, kw)`` order.
    (OH, OW):
        Output spatial dimensions.
    """
    if x.ndim != 4:
        raise ShapeError(f"im2col expects (N, C, H, W), got shape {x.shape}")
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)
    with perf.timed("im2col"):
        if ph or pw:
            x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        # (N, C, H', W') -> (N, C, OH*, OW*, kh, kw) view, strided to OH, OW
        windows = sliding_window_view(x, (kh, kw), axis=(2, 3))
        windows = windows[:, :, ::sh, ::sw, :, :]
        # -> (N, OH, OW, C, kh, kw) -> (N*OH*OW, C*kh*kw); the reshape
        # of the transposed view is the one copy.
        cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
    return cols, (oh, ow)


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: tuple[int, int] = (1, 1),
    padding: tuple[int, int] = (0, 0),
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add patch rows back to an image.

    Parameters
    ----------
    cols:
        Array of shape ``(N * OH * OW, C * kh * kw)``.
    input_shape:
        The ``(N, C, H, W)`` shape of the original (un-padded) input.

    Returns
    -------
    Array of shape ``input_shape`` with overlapping patch contributions
    summed.
    """
    n, c, h, w = input_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)
    expected = (n * oh * ow, c * kh * kw)
    if cols.shape != expected:
        raise ShapeError(f"col2im expected cols of shape {expected}, got {cols.shape}")

    with perf.timed("col2im"):
        # Reference path: allocates per call, never taken by the
        # InferencePlan.
        padded_shape = (n, c, h + 2 * ph, w + 2 * pw)
        padded = np.zeros(padded_shape, dtype=cols.dtype)  # noqa: REP012
        scatter_patches(cols, padded, kernel, stride)
    if ph or pw:
        return padded[:, :, ph : ph + h, pw : pw + w]
    return padded


def scatter_patches(
    cols: np.ndarray, padded: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int]
) -> None:
    """Add the patch rows ``cols`` into the zero-padded image ``padded``
    (:func:`col2im`'s kernel, for a caller that owns the base)."""
    n, c, hp, wp = padded.shape
    (kh, kw), (sh, sw) = kernel, stride
    oh, ow = (hp - kh) // sh + 1, (wp - kw) // sw + 1
    patches = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    # Loop only over the kernel footprint; each iteration is a strided
    # vectorized add over all output positions at once.
    for i in range(kh):
        h_stop = i + sh * oh
        for j in range(kw):
            w_stop = j + sw * ow
            padded[:, :, i:h_stop:sh, j:w_stop:sw] += patches[:, :, :, :, i, j]
