"""Strip-mined conv2d kernels: the stride-1 convolution at every size.

A monolithic im2col materializes the full ``(N*OH*OW, C*kh*kw)`` patch
matrix — ~52 MiB at the paper's 256x256/4-channel/5x5 configuration,
472 MiB for the 16->6 layer of a 16x100x100 training batch — and even a
strip of it copies every input element ``kh*kw`` times.  The kernels
here copy ``kw`` times and let strides supply the ``kh`` row shifts.

For each batch image and each strip of output rows, :func:`patch_strips`
yields the views of one strip: the ``kw`` horizontal shifts of the
``rows + kh - 1`` input rows under it, the small reused buffer they are
copied into (sized to stay inside the L2 cache, filled in ``OW``-long
contiguous runs), and a strided view of that buffer which is already a
stack of GEMM operands, consumed while cache-hot:

* :func:`conv2d_forward_blocked` — the forward, used by every stride-1
  ``conv2d`` with or without autograd and by
  :class:`~repro.core.inference.InferencePlan`: one stacked ``matmul``
  per strip, a ``(F, K) @ (K, OW)`` GEMM per output row landing in the
  strip's ``(F, rows, OW)`` rows of the ``(N, F, OH, OW)`` result (no
  transposed copy).  With the leaky-ReLU, the GEMMs land in a small
  contiguous work strip instead and the epilogue runs there — a
  strided operand costs NumPy iterator buffers on every call and runs
  at less than half the speed: per strip ``copyto`` → ``matmul(out=)``
  → ``multiply`` → ``maximum`` (``minimum`` for a slope above 1) →
  ``copyto`` into the result and nothing else.  Training adds one
  comparison, writing ``z >= 0`` into a bool mask which the backward
  keeps, one byte per element, instead of the pre-activation.  A biased
  forward carries the bias as one more tap per strip-buffer row (a
  constant 1.0, written when the strip is bound, against the bias at
  ``dy = 0`` and zero at ``dy > 0`` in the repacked weights), so the
  GEMM adds it;
* :func:`conv2d_weight_grad_blocked` — the weight gradient, which
  *redraws* each strip and accumulates ``g_strip @ shifted`` for all
  ``kh`` row shifts in one stacked ``matmul``, so training retains no
  patch matrix; ``g_strip`` is the strip's rows of the output gradient
  copied into a small contiguous buffer, since that gradient is, when
  an input gradient follows, the interior of its zero-bordered source;
* the input gradient, which is :func:`conv2d_forward_blocked` again:
  a correlation of the padded output gradient with the flipped,
  channel-swapped weights (see :func:`~repro.tensor.ops_conv.conv2d`).

The forward binds a :class:`StripForward` — every operand view — and
executes a fixed loop of NumPy calls over it; the op runs each strip as
it is bound, an ``InferencePlan`` keeps the views and re-runs them.
The result may be the interior of a zero-bordered buffer — the next
conv's padded input, which then needs no pad copy: the GEMMs write the
interior through their leading dimension, and an activated strip is
copied out as whole padded rows, the work strip's border columns 0
because ``leaky(0) = 0`` and no bias pass touches them (a training
mask, bordered like the result, takes the same rows).  Strips fill
1 MiB in forward-only calls (the plan, the no-grad op) and 512 KiB in
training, whose weight gradient is slower at 1 MiB; the bias tap
counts in the budget, and so do a forward-only activated strip's work
strip and its scaled twin.

A rank's kernels run on its share of the cores, ``max(1, cores //
ranks)`` threads, set where ranks start (:mod:`repro.mpi.launcher`).
Above share 1, :func:`for_each_image` deals a batch's images one at a
time, round-robin, to the caller and ``share - 1`` pool workers.
Helper ``k`` draws scratch from the caller's arena's ``k``-th helper
arena (:meth:`~repro.tensor.workspace.Workspace.helper`), whichever pool
thread runs it; the deal is fixed, so every arena sees the same shapes
on every call, a helper's scratch is warm from the caller's second call
on, and arenas grow with callers times ``share - 1``, not with the
pool.  What is zeroed per image (a bordered output's border, the
backward's gradient source) is zeroed in that per-image work, not on
the caller's thread before it.  The weight gradient adds an image's
per-strip partials only after every earlier image's (one done ahead of
its turn parks a copy), so it sums in the serial ``(image, r0)`` order
and no split changes a bit.

Per output element this is the dot product over the same ``C*kh*kw``
values as the reference im2col kernel plus the bias, summed in ``(dy,
c, dx)`` order with the bias after the ``dy = 0`` taps instead of
``(c, dy, dx)`` order and the bias last; the test suite pins equality
with it at ``allclose`` tolerances, not bitwise.  What *is* bit-pinned
is the kernel against itself: every output row is one independent GEMM
whatever the strip holds, so the op, the compiled plan, a training
forward and a call without an arena all agree bitwise.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..exceptions import ShapeError
from . import perf
from .im2col import conv_output_size
from .workspace import Workspace, scratch

__all__ = [
    "StripForward",
    "bordered_buffer",
    "conv2d_forward_blocked",
    "conv2d_weight_grad_blocked",
    "leaky_relu_inplace",
    "zero_border",
]

#: ``(shifts, strip, operand, gemm_out, epilogue)`` of one bound strip;
#: with an activation ``epilogue`` is the contiguous strip the GEMMs
#: wrote, its scratch twin, the output rows it goes to and, in training,
#: a bool strip and the mask rows it goes to (else ``None``, ``None``).
_Epilogue = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]
_Strip = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, _Epilogue | None]

#: Strip buffer budgets, forward-only and training: ``rows + kh - 1``
#: input rows of ``C*kw*OW`` elements, written once and read ``kh``
#: times, so they have to sit in L2 (see the module docstring).
_FORWARD_STRIP_BYTES = 1 << 20
_TRAIN_STRIP_BYTES = 1 << 19

#: The calling thread's share of the cores (``threads``, 1 unless a
#: rank's start set it), and the process's pool of image workers.
_share = threading.local()
_pool: ThreadPoolExecutor | None = None


def image_threads() -> int:
    """Threads the calling thread's kernels split a batch over."""
    return getattr(_share, "threads", 1)


def set_image_threads(threads: int) -> int:
    """Set the calling thread's share; returns the one it replaces."""
    previous, _share.threads = image_threads(), threads
    return previous


def for_each_image(
    n: int, workspace: Workspace | None, work: Callable[[slice, Workspace | None], None]
) -> None:
    """``work(images, arena)`` over all ``n`` images: one call on the
    whole batch at share 1, else one call per image, dealt round-robin
    to this thread (images 0, t, 2t, ...) and ``t - 1`` pool workers
    (helper ``k`` from image ``k + 1`` on) for ``t = min(n, share)``,
    helper ``k`` with ``workspace``'s ``k``-th helper arena (none when
    ``workspace`` is none).  The deal is fixed, so each arena sees the
    same images, hence the same shapes, on every call."""
    global _pool
    threads = min(n, image_threads())
    if threads <= 1:
        work(slice(0, n), workspace)
        return

    def deal(first: int, arena: Workspace | None) -> None:
        for image in range(first, n, threads):
            work(slice(image, image + 1), arena)

    pool = _pool = _pool or ThreadPoolExecutor(thread_name_prefix="repro-images")
    arenas = [None if workspace is None else workspace.helper(k) for k in range(threads - 1)]
    futures = [pool.submit(deal, k + 1, arena) for k, arena in enumerate(arenas)]
    try:
        deal(0, workspace)
    finally:  # the helpers are done (or raise) before the caller returns
        for future in futures:
            future.result()


def _drop_pool() -> None:
    global _pool  # a forked child has none of its threads
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _strip_rows(
    budget: int, ow: int, width: int, kh: int, size: int, oh: int, extra: int = 0
) -> int:
    """Output rows per strip so its ``rows + kh - 1`` input rows of
    ``width`` taps (``C*kw``, plus a bias tap) and ``extra`` elements per
    output row (a forward-only work strip and its twin) meet ``budget``."""
    row_bytes = ow * width * size
    return max(1, min(oh, (budget - (kh - 1) * row_bytes) // (row_bytes + extra * size)))


def bordered_buffer(
    shape: tuple[int, ...],
    border: tuple[int, int],
    dtype: np.dtype,
    workspace: Workspace | None,
    slot: str,
) -> tuple[np.ndarray, np.ndarray]:
    """A buffer ``2*bh`` rows and ``2*bw`` columns larger than the ``(N,
    C, H, W)`` ``shape``, its border zero, and its ``shape``-sized
    interior.  Only interiors are ever written, so the arena slot name,
    ``{slot}.{bh}x{bw}``, encodes the split: two splits of one padded
    shape must not share a buffer's zero borders.  Without an arena
    (``workspace_disabled``) the buffer is freshly zeroed."""
    bh, bw = border
    n, c, h, w = shape
    padded_shape = (n, c, h + 2 * bh, w + 2 * bw)
    if workspace is None:
        padded = np.zeros(padded_shape, dtype)
    else:
        padded = workspace.request(f"{slot}.{bh}x{bw}", padded_shape, dtype)
    return padded, padded[:, :, bh : bh + h, bw : bw + w]


def zero_border(padded: np.ndarray, interior: tuple[int, int]) -> None:
    """Zero ``padded`` around its centred ``(H, W)`` ``interior`` window,
    over every leading axis."""
    h, w = interior
    bh, bw = (padded.shape[-2] - h) // 2, (padded.shape[-1] - w) // 2
    padded[..., :bh, :], padded[..., bh + h :, :] = 0.0, 0.0
    padded[..., :bw], padded[..., bw + w :] = 0.0, 0.0


def leaky_relu_inplace(z: np.ndarray, slope: float, scaled: np.ndarray) -> None:
    """Overwrite ``z`` with ``z * where(z >= 0, 1, slope)``, the standalone
    op's product, bit for bit, in two dense passes through the same-shape
    ``scaled``: ``max(z, slope*z)`` (``min`` for a slope above 1) keeps
    ``z >= 0`` untouched and picks the same product below it.  A zero
    slope multiplies by ``z >= 0`` instead, since ``0 * inf`` would make
    ``max(inf, 0*inf)`` NaN."""
    if slope == 0.0:
        np.greater_equal(z, 0.0, out=scaled)
        np.multiply(z, scaled, out=z)
    else:
        np.multiply(z, slope, out=scaled)
        (np.minimum if slope > 1.0 else np.maximum)(z, scaled, out=z)


def patch_strips(
    source: np.ndarray,
    kernel: tuple[int, int],
    rows: int,
    dtype: np.dtype,
    workspace: Workspace | None,
    slot_prefix: str,
    tap_major: bool = False,
    bias_tap: bool = False,
) -> Iterator[tuple[int, int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(image, r0, r1, shifts, strip, operand)`` per strip of
    ``rows`` output rows of the valid convolution of the padded
    ``source``.  The consumer copies ``shifts`` (the ``kw`` horizontal
    shifts of the input rows under output rows ``r0:r1`` of ``image``)
    into ``strip``, a view of one buffer (slot ``{slot_prefix}.rows``),
    and reads the read-only GEMM operand view of that buffer:

    * row-major (the default), ``R[y, (c, dx), x] = xpad[c, r0 + y, x +
      dx]``: the ``kh`` buffer rows from ``y = j`` on are one contiguous
      ``(kh*T, OW)`` matrix, taps in ``(dy, c, dx)`` order, and the
      operand stacks those overlapping windows as ``(rows, kh*T, OW)``.
      ``T`` is ``C*kw``, plus one with ``bias_tap``: every buffer row
      then ends in an ``OW``-long run of 1.0, written here, once, and
      never part of ``strip``;
    * ``tap_major``, ``R[(c, dx), y, x]``: reading a tap's plane ``dy``
      rows later shifts all ``m = rows*OW`` positions at once, and the
      operand is ``(kh, m, C*kw)``.
    """
    n, c, hp, wp = source.shape
    kh, kw = kernel
    oh, ow = hp - kh + 1, wp - kw + 1
    sn, sc, sy, sx = source.strides
    # (N, H, C, kw, OW) zero-copy view of every input row's kw shifts.
    shifts = as_strided(source, (n, hp, c, kw, ow), (sn, sy, sc, sx, sx), writeable=False)
    step = np.dtype(dtype).itemsize
    rin, taps = rows + kh - 1, c * kw
    width = taps + bias_tap
    buffer = scratch(workspace, f"{slot_prefix}.rows", (rin * width * ow,), dtype, shared=True)
    if tap_major:
        strip = buffer.reshape(c, kw, rin, ow).transpose(2, 0, 1, 3)
        shape, strides = (kh, rows * ow, taps), (ow * step, step, rin * ow * step)
    else:
        tap_rows = buffer.reshape(rin, width, ow)
        tap_rows[:, taps:] = 1.0  # the bias tap, if any
        strip = tap_rows[:, :taps].reshape(rin, c, kw, ow)
        shape, strides = (rows, kh * width, ow), (width * ow * step, ow * step, step)
    operand = as_strided(buffer, shape, strides, writeable=False)
    for image in range(n):
        for r0 in range(0, oh, rows):
            r1 = min(oh, r0 + rows)
            # The ragged last strip is a prefix of the same views.
            yield image, r0, r1, shifts[image, r0 : r1 + kh - 1], strip[: r1 - r0 + kh - 1], (
                operand[:, : (r1 - r0) * ow] if tap_major else operand[: r1 - r0]
            )


class StripForward:
    """One stride-1 conv forward, bound: the padded input's interior, the
    weight-repack buffer and, per strip, the :data:`_Strip` views.  The
    views hold their base arrays (an unpadded input too), so a kept
    binding stays valid; ``strips`` is a generator, which a caller that
    re-executes turns into a list.  ``out``'s dtype is the compute dtype.

    ``out`` is the ``(N, F, OH, OW)`` result or a zero-bordered ``(N, F,
    OH + 2*bh, OW + 2*bw)`` buffer whose interior receives it, border
    kept 0 (see the module docstring); ``biased`` binds the bias tap.
    With a ``slope`` the GEMMs write a contiguous work strip of whole
    padded rows, whose border columns are zeroed here, once; ``mask``, a
    bool array shaped like ``out`` (training), receives ``z >= 0`` on
    the same rows.
    """

    def __init__(
        self,
        x: np.ndarray,
        out: np.ndarray,
        kernel: tuple[int, int],
        padding: tuple[int, int],
        biased: bool,
        slope: float | None,
        workspace: Workspace | None,
        slot: str,
        training: bool = False,
        mask: np.ndarray | None = None,
    ) -> None:
        (kh, kw), (ph, pw), dtype = kernel, padding, out.dtype
        _, c, h, w = x.shape
        oh, ow = h + 2 * ph - kh + 1, w + 2 * pw - kw + 1
        f, wp = out.shape[1], out.shape[3]
        bh, bw = (out.shape[2] - oh) // 2, (wp - ow) // 2
        result = out[:, :, bh : bh + oh, bw : bw + ow]
        source, self.interior = x, None
        if ph or pw:  # x is copied into the interior on every execute
            source, self.interior = bordered_buffer(
                x.shape, padding, dtype, workspace, f"{slot}.padded"
            )
        budget = _TRAIN_STRIP_BYTES if training else _FORWARD_STRIP_BYTES
        width = c * kw + biased
        extra = 2 * f * wp if slope is not None and not training else 0
        rows = _strip_rows(budget, ow, width, kh, dtype.itemsize, oh, extra)
        # Taps in (dy, c, dx[, bias]) order, as kh consecutive strip rows hold them.
        taps = scratch(workspace, f"{slot}.wmat", (f, kh, width), dtype)
        taps[:, 1:, c * kw :] = 0.0  # the bias tap counts once, at dy = 0
        self.taps = taps[:, :, : c * kw].reshape(f, kh, c, kw)
        self.bias = taps[:, 0, c * kw] if biased else None
        self.wmat = taps.reshape(f, kh * width)
        self.slope, self.out = slope, out
        if slope is not None:
            # (F, rows, wp) strips, flat so a ragged one is a contiguous
            # prefix; every reshape keeps a column at the same offset.
            size = (f * rows * wp,)
            work, scaled = scratch(workspace, f"{slot}.work", (2, *size), dtype)
            flags = None if mask is None else scratch(workspace, f"{slot}.mask", size, bool)
            work.reshape(-1, wp)[:, :bw], work.reshape(-1, wp)[:, bw + ow :] = 0.0, 0.0

        def strips() -> Iterator[_Strip]:
            for image, r0, r1, shifts, strip, stack in patch_strips(
                source, kernel, rows, dtype, workspace, slot, bias_tap=biased
            ):
                if slope is None:  # the GEMMs write the result's interior
                    gemm_out = result[image, :, r0:r1].transpose(1, 0, 2)
                    yield shifts, strip, stack, gemm_out, None
                    continue
                rows_out, m = np.s_[image, :, bh + r0 : bh + r1], f * (r1 - r0) * wp
                block = work[:m].reshape(f, r1 - r0, wp)
                epilogue = (block, scaled[:m].reshape(block.shape), out[rows_out], None, None)
                if flags is not None and mask is not None:
                    epilogue = epilogue[:3] + (flags[:m].reshape(block.shape), mask[rows_out])
                gemm_out = block[:, :, bw : bw + ow].transpose(1, 0, 2)
                yield shifts, strip, stack, gemm_out, epilogue

        self.strips: Iterable[_Strip] = strips()

    def execute(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None, timing: bool
    ) -> np.ndarray:
        """Run the bound views on ``x`` and the parameters (read afresh;
        ``bias`` is given exactly when bound ``biased``) and return
        ``out``.  ``timing`` (the perf flag, read once by the caller)
        records ``im2col`` and ``conv2d.leaky_relu`` per call.

        The activation is :func:`leaky_relu_inplace` on the contiguous
        work strip, bit-identical to the standalone op; training adds one
        comparison before it, into a contiguous bool strip, and a
        ``copyto`` each writes the two out.
        """
        # Perf off: ``float()`` is 0.0, a no-op clock in the same calls.
        clock: Callable[[], float] = time.perf_counter if timing else float
        start = clock()
        if self.interior is not None:
            np.copyto(self.interior, x)
        np.copyto(self.taps, weight.transpose(0, 2, 1, 3))
        if self.bias is not None:
            np.copyto(self.bias, bias)
        wmat, slope = self.wmat, self.slope
        copy_s = epilogue_s = 0.0
        for shifts, strip, stack, gemm_out, epilogue in self.strips:
            tick = clock()
            np.copyto(strip, shifts)
            copy_s += clock() - tick
            # One (F, K) @ (K, OW) GEMM per output row, looped by NumPy
            # in C, each landing in its row of an (F, rows, OW) block:
            # rows of one GEMM's output are a whole plane apart, which
            # BLAS takes as a leading dimension.  The bias tap makes
            # this the pre-activation.
            np.matmul(wmat, stack, out=gemm_out)
            if epilogue is None:
                continue
            # Dense inner loops on the cache-hot contiguous strip: a
            # strided operand would cost NumPy's iterator buffers.
            tick = clock()
            work, scaled, rows_out, flags, mask_rows = epilogue
            if flags is not None:
                np.greater_equal(work, 0.0, out=flags)
                np.copyto(mask_rows, flags)
            leaky_relu_inplace(work, slope, scaled)
            np.copyto(rows_out, work)
            epilogue_s += clock() - tick
        if timing:
            perf.record_call("im2col", copy_s)
            if slope is not None:
                perf.record_call("conv2d.leaky_relu", epilogue_s)
            perf.record_call("conv2d.blocked", clock() - start)
        return self.out


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
    training: bool = False,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Strip-mined stride-1 conv2d forward; nothing is kept for a backward pass.

    ``x`` is ``(N, C, H, W)``, ``weight`` ``(F, C, kh, kw)``, ``bias``
    ``(F,)`` or ``None``; ``padding`` is symmetric zero padding.  ``out``
    is an optional C-contiguous destination in the compute dtype
    ``result_type(x, weight)``: the ``(N, F, OH, OW)`` result, or a
    buffer ``2*bh`` rows and ``2*bw`` columns larger whose interior
    receives it and whose border is zeroed here, image by image — any
    other is refused, not cast into.  ``training`` selects the training strip
    budget, and ``mask``, a bool array shaped like ``out``, receives the
    pre-activation's ``z >= 0`` (the autograd path keeps it for
    backward).  Returns ``out``, C-contiguous.
    """
    n, _, h, w = x.shape
    f, _, kh, kw = weight.shape
    oh = conv_output_size(h, kh, 1, padding[0])
    shape = (n, f, oh, conv_output_size(w, kw, 1, padding[1]))
    dtype = np.result_type(x.dtype, weight.dtype)
    if out is None:
        out = np.empty(shape, dtype=dtype)
    elif (
        out.shape[:2] != shape[:2]
        or any(o < s or (o - s) % 2 for o, s in zip(out.shape[2:], shape[2:]))
        or not out.flags.c_contiguous
        or out.dtype != dtype
    ):
        raise ShapeError(
            f"blocked conv needs a C-contiguous {shape} {dtype} destination "
            f"or a bordered one, got {out.dtype} {out.shape}"
        )
    slope, timing = None if activation is None else negative_slope, perf.perf_enabled()

    def run(images: slice, arena: Workspace | None) -> None:
        if out.shape != shape:
            zero_border(out[images], shape[2:])
        forward = StripForward(
            x[images], out[images], (kh, kw), padding, bias is not None, slope, arena,
            slot_prefix, training, None if mask is None else mask[images],
        )  # fmt: skip
        forward.execute(x[images], weight, bias, timing)

    for_each_image(n, workspace, run)
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

    ``x`` is the ``(N, C, H, W)`` forward input (a chained conv passes
    its zero-bordered source with ``padding`` 0) and ``grad`` the ``(N,
    F, OH, OW)`` gradient of the pre-activation output, in any layout —
    the autograd path passes the interior of the input gradient's
    zero-bordered source.  Each strip is redrawn tap-major (into the
    arena slot the forward used, when ``slot_prefix`` and dtypes match),
    where row shift ``dy`` of all its ``m = rows*OW`` output positions
    is the strip itself read ``dy*OW`` elements later, and the strip's
    rows of ``grad`` are copied into a small contiguous ``(F, m)``
    buffer: one stacked matmul ``g_strip (F, m) @ shifted (kh, m,
    C*kw)`` gives all ``kh`` shifts.  The strip-wise sum reassociates
    the reference ``gmat.T @ cols`` reduction, so the two agree to
    roundoff, not bitwise.  Returns a freshly allocated contiguous
    ``(F, C, kh, kw)`` array.
    """
    n, f, oh, ow = grad.shape
    c = x.shape[1]
    kh, kw = kernel
    dtype = np.result_type(x.dtype, grad.dtype)
    source = x
    if padding != (0, 0):
        source, interior = bordered_buffer(
            x.shape, padding, dtype, workspace, f"{slot_prefix}.padded"
        )
        np.copyto(interior, x)
    rows = _strip_rows(_TRAIN_STRIP_BYTES, ow, c * kw, kh, dtype.itemsize, oh)
    grad_w = np.zeros((kh, f, c * kw), dtype=dtype)
    # Images join the sum in the serial order; one done early parks a copy.
    parked: dict[int, np.ndarray] = {}
    summed, turn = [0], threading.Lock()
    per_image = (-(-oh // rows), *grad_w.shape)  # one partial per strip

    def run(images: slice, arena: Workspace | None) -> None:
        grad_rows = scratch(arena, f"{slot_prefix}.grows", (f * rows * ow,), dtype)
        partials = scratch(arena, f"{slot_prefix}.wgrad", per_image, dtype)
        for image, r0, r1, shifts, strip, shifted in patch_strips(
            source[images], kernel, rows, dtype, arena, slot_prefix, tap_major=True
        ):
            with perf.timed("im2col"):
                np.copyto(strip, shifts)
            g_strip = grad_rows[: f * (r1 - r0) * ow].reshape(f, r1 - r0, ow)
            np.copyto(g_strip, grad[images.start + image, :, r0:r1])
            np.matmul(g_strip.reshape(f, -1), shifted, out=partials[r0 // rows])
            if r1 == oh:
                with turn:
                    image += images.start
                    parked[image] = partials if image == summed[0] else partials.copy()
                    while summed[0] in parked:
                        for partial in parked.pop(summed[0]):
                            np.add(grad_w, partial, out=grad_w)
                        summed[0] += 1

    for_each_image(n, workspace, run)
    return np.ascontiguousarray(grad_w.reshape(kh, f, c, kw).transpose(1, 2, 0, 3))
