"""Solution state of the linearized Euler equations.

The state holds the four perturbation fields on a grid; the channel
order ``(p, rho, u, v)`` matches the paper's Fig. 3 ordering and is the
channel layout of all CNN tensors in the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ShapeError

#: Canonical channel order used everywhere in the package.
CHANNELS: tuple[str, ...] = ("p", "rho", "u", "v")
NUM_CHANNELS: int = len(CHANNELS)


@dataclass
class EulerState:
    """Perturbation fields ``p'``, ``rho'``, ``u'``, ``v'`` on a grid.

    All arrays have shape ``(ny, nx)`` and share a dtype.  The solver
    steps the channel stack (:meth:`to_array`); a state built from the
    channels of one stack (``EulerState(*stack)``) holds views of it,
    which is how boundary conditions write into a stepped stack.
    """

    p: np.ndarray
    rho: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        shape = self.p.shape
        for name in ("rho", "u", "v"):
            if getattr(self, name).shape != shape:
                raise ShapeError(
                    f"field {name!r} shape {getattr(self, name).shape} "
                    f"differs from p shape {shape}"
                )

    # ------------------------------------------------------------------
    # Constructors / converters
    # ------------------------------------------------------------------
    @classmethod
    # Solver states are the float64 physics reference: the sha256 golden
    # pins and seeded-equivalence tests require bit-exact float64 fields
    # regardless of the active (network) precision policy.
    def zeros(cls, shape: tuple[int, int], dtype=np.float64) -> "EulerState":  # noqa: REP014
        """All-quiescent state."""
        return cls(*(np.zeros(shape, dtype=dtype) for _ in CHANNELS))

    @classmethod
    def from_array(cls, array: np.ndarray) -> "EulerState":
        """Build a state from a ``(4, ny, nx)`` channel-stacked array."""
        if array.ndim != 3 or array.shape[0] != NUM_CHANNELS:
            raise ShapeError(
                f"expected array of shape (4, ny, nx), got {array.shape}"
            )
        return cls(*(array[i].copy() for i in range(NUM_CHANNELS)))

    def to_array(self) -> np.ndarray:
        """Stack the fields into a ``(4, ny, nx)`` array (p, rho, u, v)."""
        return np.stack([self.p, self.rho, self.u, self.v])

    def copy(self) -> "EulerState":
        return EulerState(self.p.copy(), self.rho.copy(), self.u.copy(), self.v.copy())

    @property
    def shape(self) -> tuple[int, int]:
        return self.p.shape

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def max_abs(self) -> float:
        """Largest magnitude over all fields (stability indicator)."""
        return max(
            float(np.max(np.abs(field))) for field in (self.p, self.rho, self.u, self.v)
        )

    def is_finite(self) -> bool:
        """Whether every field is free of NaN/Inf."""
        return all(
            bool(np.all(np.isfinite(field)))
            for field in (self.p, self.rho, self.u, self.v)
        )
