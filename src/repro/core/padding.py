"""Padding strategies for subdomain networks (Sec. III of the paper).

A stack of valid ``k × k`` convolutions shrinks the field by ``k - 1``
lines per layer, so the network output cannot be compared directly with
the same-size target.  The paper enumerates four remedies.  Two are
implemented here, plus the all-valid extreme of the neighbour-data one:

1. ``ZERO`` — zero-pad inside every layer ("same" convolutions).
2. ``NEIGHBOR_FIRST`` — enlarge the *input* with neighbour data so the
   first (valid) layer's output already matches the target; remaining
   layers zero-pad.  This is the paper's production configuration
   ("For the first layer, we increase the input dimension …").
3. ``NEIGHBOR_ALL`` — every layer valid; the input halo covers the full
   receptive-field shrinkage, so no artificial padding at subdomain
   interfaces at all (the logical extreme of strategy 2).

The paper rejects inner cropping (comparing only the target's inner
points), because its output misses the interface lines and so cannot
seed the next step.  It leaves a trailing transposed convolution "under
investigation".  Measured here at equal training wall time (48²
euler-gaussian, P = 4, increment form, 5 seeds, 20 s each), the
transposed convolution lost to ``NEIGHBOR_FIRST`` at every seed, at
rollout steps 1 and 8 (EXPERIMENTS.md, Sec. III).  Neither is
implemented.
"""

from __future__ import annotations

from enum import Enum

from ..exceptions import ConfigurationError


class PaddingStrategy(Enum):
    """How a subdomain network reconciles output and target sizes."""

    ZERO = "zero"
    NEIGHBOR_FIRST = "neighbor_first"
    NEIGHBOR_ALL = "neighbor_all"

    # ------------------------------------------------------------------
    def input_halo(self, kernel_size: int, num_layers: int) -> int:
        """Overlap (grid lines per side) the *input* must carry.

        Strategy 2 needs the first layer's shrinkage ``(k-1)/2``;
        strategy 3 needs the whole stack's ``num_layers * (k-1)/2``;
        zero padding feeds the bare block.
        """
        per_layer = (kernel_size - 1) // 2
        if self is PaddingStrategy.NEIGHBOR_FIRST:
            return per_layer
        if self is PaddingStrategy.NEIGHBOR_ALL:
            return per_layer * num_layers
        return 0

    @property
    def uses_neighbour_data(self) -> bool:
        """Whether inference requires halo exchange between ranks."""
        return self in (PaddingStrategy.NEIGHBOR_FIRST, PaddingStrategy.NEIGHBOR_ALL)

    @property
    def description(self) -> str:
        return {
            PaddingStrategy.ZERO: "zero padding in every layer",
            PaddingStrategy.NEIGHBOR_FIRST: "neighbour-data halo for layer 1, zero padding after (paper default)",
            PaddingStrategy.NEIGHBOR_ALL: "valid convolutions with full neighbour-data halo",
        }[self]


def parse_strategy(value: "PaddingStrategy | str") -> PaddingStrategy:
    """Coerce a string (e.g. from a CLI) into a :class:`PaddingStrategy`."""
    if isinstance(value, PaddingStrategy):
        return value
    try:
        return PaddingStrategy(value)
    except ValueError:
        raise ConfigurationError(
            f"unknown padding strategy {value!r}; choose from "
            f"{[s.value for s in PaddingStrategy]}"
        ) from None
