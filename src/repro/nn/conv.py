"""The convolutional layer :class:`Conv2d` and its step rules.

:class:`Conv2d` is the building block of the paper's Table-I network;
``padding="same"`` reproduces the paper's "Padding: Yes" column for odd
kernels, and ``padding=0`` (valid convolution) is what the
neighbour-data padding strategy uses after physically enlarging the
input with halo data.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..exceptions import ConfigurationError
from ..tensor import Tensor, conv2d
from .activations import LeakyReLU
from .init import get_initializer
from .module import Module, Parameter


def _resolve_padding(padding: int | str, kernel_size: int) -> int:
    if isinstance(padding, str):
        if padding == "same":
            if kernel_size % 2 == 0:
                raise ConfigurationError(
                    "'same' padding requires an odd kernel size, "
                    f"got {kernel_size}"
                )
            return (kernel_size - 1) // 2
        if padding == "valid":
            return 0
        raise ConfigurationError(f"unknown padding mode {padding!r}")
    if padding < 0:
        raise ConfigurationError(f"padding must be >= 0, got {padding}")
    return int(padding)


class Conv2d(Module):
    """2-D convolution over ``(N, C, H, W)`` inputs.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts; Table I of the paper uses 4→6→16→6→4.
    kernel_size:
        Square kernel edge (paper: 5).
    stride:
        Must be 1, the only stride :func:`~repro.tensor.conv2d` takes.
    padding:
        ``int``, ``"same"`` or ``"valid"``; smaller than the kernel.
    bias:
        Include a per-filter bias term.
    init:
        Initializer name from :mod:`repro.nn.init`.
    rng:
        Random generator for reproducible weights.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 5,
        stride: int = 1,
        padding: int | str = 0,
        bias: bool = True,
        init: str = "glorot_uniform",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ConfigurationError("channel counts must be positive")
        if kernel_size <= 0:
            raise ConfigurationError("kernel_size must be positive")
        if stride != 1:
            raise ConfigurationError(f"Conv2d takes stride 1 only, got {stride}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = int(kernel_size)
        self.stride = 1
        self.padding = _resolve_padding(padding, kernel_size)
        if self.padding >= self.kernel_size:
            raise ConfigurationError(
                f"Conv2d padding must be < kernel_size {kernel_size}, got {self.padding}"
            )
        generator = rng if rng is not None else np.random.default_rng()
        shape = (out_channels, in_channels, self.kernel_size, self.kernel_size)
        self.weight = Parameter(get_initializer(init)(shape, generator))
        if bias:
            self.bias = Parameter(np.zeros(out_channels))
        else:
            self.bias = None

    def forward(self, x: Tensor, negative_slope: float | None = None, border: int = 0) -> Tensor:
        """Convolve ``x``; a ``negative_slope`` fuses a leaky ReLU with
        that slope into the conv (bit-identical to a following
        :class:`LeakyReLU`, see :func:`fuse_leaky_relu`), and a
        ``border`` writes the result into the zero-bordered input of the
        padded conv after it (see :func:`chain_borders`)."""
        if negative_slope is None:
            return conv2d(
                x, self.weight, self.bias, stride=self.stride, padding=self.padding,
                border=border,
            )  # fmt: skip
        return conv2d(
            x, self.weight, self.bias, stride=self.stride, padding=self.padding,
            activation="leaky_relu", negative_slope=negative_slope, border=border,
        )  # fmt: skip

    def output_shape(self, height: int, width: int) -> tuple[int, int]:
        """Spatial output size for an input of ``(height, width)``."""
        k, p = self.kernel_size, self.padding
        return (height + 2 * p - k + 1, width + 2 * p - k + 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding}, bias={self.bias is not None})"
        )


def fuse_leaky_relu(layers: Iterable[Module]) -> list[tuple[Module, float | None]]:
    """``(layer, slope)`` per step of running ``layers`` in order: a
    :class:`Conv2d` directly followed by a :class:`LeakyReLU` is one
    step carrying that activation's slope, every other layer a step of
    its own with ``None``.  The one pairing rule of the paper network's
    module forward and of a compiled
    :class:`~repro.core.inference.InferencePlan`."""
    steps: list[tuple[Module, float | None]] = []
    for layer in layers:
        if (
            isinstance(layer, LeakyReLU)
            and steps
            and isinstance(steps[-1][0], Conv2d)
            and steps[-1][1] is None
        ):
            steps[-1] = (steps[-1][0], layer.negative_slope)
        else:
            steps.append((layer, None))
    return steps


def chain_borders(steps: list[tuple[Module, float | None]]) -> list[int]:
    """The zero border each step of :func:`fuse_leaky_relu` writes its
    output with: a :class:`Conv2d` directly followed by another writes
    that follower's padding, so the follower reads the buffer as its
    padded input with no pad copy; every other step 0.  The one chaining
    rule of the paper network's module forward and of a compiled
    :class:`~repro.core.inference.InferencePlan`."""
    borders = [0] * len(steps)
    for index, ((lead, _), (follower, _)) in enumerate(zip(steps, steps[1:])):
        if isinstance(lead, Conv2d) and isinstance(follower, Conv2d):
            borders[index] = follower.padding
    return borders
