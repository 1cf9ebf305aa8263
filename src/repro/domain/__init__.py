"""Domain decomposition and halo exchange."""

from .decomposition import BlockDecomposition, Subdomain, split_extent
from .halo import HaloExchanger

__all__ = [
    "BlockDecomposition",
    "Subdomain",
    "split_extent",
    "HaloExchanger",
]
