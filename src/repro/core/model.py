"""The paper's CNN (Table I) and its padding-strategy variants.

Table I:

====== ============== =============== ======== =======
layer  input channels output channels kernel   padding
1      4              6               5 × 5    yes
2      6              16              5 × 5    yes
3      16             6               5 × 5    yes
4      6              4               5 × 5    yes
====== ============== =============== ======== =======

Activations are leaky ReLU with ε = 0.01 after every layer except the
last (a regression head).  The four data channels are (p, rho, u, v).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ConfigurationError
from ..nn import Conv2d, ConvTranspose2d, LeakyReLU, Module, Sequential
from ..nn import chain_borders, fuse_leaky_relu
from ..tensor import Tensor
from .padding import PaddingStrategy

#: Table-I channel progression (input of layer i, output of layer 4).
PAPER_CHANNELS: tuple[int, ...] = (4, 6, 16, 6, 4)
#: Table-I kernel edge.
PAPER_KERNEL_SIZE: int = 5
#: Paper's leaky-ReLU epsilon.
PAPER_NEGATIVE_SLOPE: float = 0.01


@dataclass(frozen=True)
class CNNConfig:
    """Architecture configuration; defaults reproduce Table I exactly."""

    channels: tuple[int, ...] = PAPER_CHANNELS
    kernel_size: int = PAPER_KERNEL_SIZE
    negative_slope: float = PAPER_NEGATIVE_SLOPE
    strategy: PaddingStrategy = PaddingStrategy.NEIGHBOR_FIRST
    init: str = "glorot_uniform"

    def __post_init__(self) -> None:
        if len(self.channels) < 2:
            raise ConfigurationError("need at least one layer (two channel entries)")
        if self.kernel_size % 2 == 0:
            raise ConfigurationError(
                f"kernel size must be odd for symmetric halos, got {self.kernel_size}"
            )

    @property
    def num_layers(self) -> int:
        return len(self.channels) - 1

    @property
    def input_halo(self) -> int:
        return self.strategy.input_halo(self.kernel_size, self.num_layers)

    @property
    def output_crop(self) -> int:
        return self.strategy.output_crop(self.kernel_size, self.num_layers)


class SubdomainCNN(Module):
    """One subdomain's network: the Table-I CNN under a padding strategy.

    The network maps an input block of shape
    ``(N, C, h + 2*input_halo, w + 2*input_halo)`` to an output of shape
    ``(N, C, h - 2*output_crop, w - 2*output_crop)`` where ``(h, w)`` is
    the subdomain's interior size.
    """

    def __init__(self, config: CNNConfig | None = None, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.config = config if config is not None else CNNConfig()
        generator = rng if rng is not None else np.random.default_rng()
        cfg = self.config
        same_pad = (cfg.kernel_size - 1) // 2

        def layer_padding(index: int) -> int:
            if cfg.strategy is PaddingStrategy.ZERO:
                return same_pad
            if cfg.strategy is PaddingStrategy.NEIGHBOR_FIRST:
                # Layer 1 consumes the input halo (valid); the rest pad.
                return 0 if index == 0 else same_pad
            # NEIGHBOR_ALL, INNER_CROP, TRANSPOSE: all layers valid.
            return 0

        layers: list[Module] = []
        for index in range(cfg.num_layers):
            layers.append(
                Conv2d(
                    cfg.channels[index],
                    cfg.channels[index + 1],
                    kernel_size=cfg.kernel_size,
                    padding=layer_padding(index),
                    init=cfg.init,
                    rng=generator,
                )
            )
            if index < cfg.num_layers - 1:
                layers.append(LeakyReLU(cfg.negative_slope))
        if cfg.strategy is PaddingStrategy.TRANSPOSE:
            # Restore the stack's total shrinkage in one transposed conv.
            shrink = (cfg.kernel_size - 1) * cfg.num_layers
            layers.append(LeakyReLU(cfg.negative_slope))
            layers.append(
                ConvTranspose2d(
                    cfg.channels[-1],
                    cfg.channels[-1],
                    kernel_size=shrink + 1,
                    init=cfg.init,
                    rng=generator,
                )
            )
        self.layers = Sequential(*layers)

    # ------------------------------------------------------------------
    @property
    def input_halo(self) -> int:
        """Required input overlap per side (0, 2 or 8 for Table I)."""
        return self.config.input_halo

    @property
    def output_crop(self) -> int:
        """Lines per side missing from the output vs. the block."""
        return self.config.output_crop

    def forward(self, x: Tensor) -> Tensor:
        # Each conv runs the leaky ReLU after it in its strip epilogue:
        # one output array per layer and, in training, one derivative
        # kept for backward instead of the pre-activation.  A conv
        # followed by a padded one writes the follower's zero-bordered
        # input, so no conv pad-copies its input after the first.
        steps = fuse_leaky_relu(self.layers)
        for (layer, slope), border in zip(steps, chain_borders(steps)):
            if isinstance(layer, Conv2d):
                x = layer(x, negative_slope=slope, border=border)
            else:
                x = layer(x)
        return x

    def expected_output_shape(self, block_shape: tuple[int, int]) -> tuple[int, int]:
        """Output spatial size for a subdomain block of ``block_shape``."""
        h, w = block_shape
        crop = self.output_crop
        return (h - 2 * crop, w - 2 * crop)


def build_paper_cnn(
    strategy: PaddingStrategy | str = PaddingStrategy.NEIGHBOR_FIRST,
    rng: np.random.Generator | None = None,
    **overrides,
) -> SubdomainCNN:
    """Construct the Table-I network under ``strategy``.

    ``overrides`` may replace any :class:`CNNConfig` field (used by the
    ablations, e.g. ``negative_slope=0.0`` for plain ReLU).
    """
    from .padding import parse_strategy

    config = CNNConfig(strategy=parse_strategy(strategy), **overrides)
    return SubdomainCNN(config, rng=rng)
