"""The four pinned workloads and the shape record they share.

A workload module exposes ``NAME``, ``KIND`` (``pipeline``, ``train`` or
``rollout``: which reference walls its traced run reconciles against),
``WHY``, ``SHAPE`` and three functions: ``setup(shape, seed) -> state``
(inputs from the seed, models/plans, one warm-up operation),
``op(state, tracer) -> OpResult`` (one timed operation) and
``verify(state, results) -> [failure, ...]`` (checks across operations).  ``setup``/``op`` take the shape as data so
``bench/tests`` can run the same code at toy size.
"""

from __future__ import annotations

import dataclasses
import importlib
from dataclasses import dataclass

#: The paper's own case; every workload runs it.
SCENARIO = "euler-gaussian"

NAMES = ("pipeline_euler64", "train_seq96", "rollout_euler256", "rollout_comm32")


@dataclass(frozen=True)
class Shape:
    """Everything that sizes a workload and the layer probes run for it.

    ``ranks``/``pgrid`` describe the operation itself.  The rollout,
    halo and message probes always need a neighbour, so they run on
    ``probe_pgrid`` (two ranks) even for the one-rank training workload.
    """

    grid: int
    ranks: int
    pgrid: tuple[int, int]
    probe_pgrid: tuple[int, int]
    #: snapshots in the training split (samples = snapshots - 1)
    train_snapshots: int
    val_snapshots: int
    epochs: int
    batch: int
    rollout_steps: int

    def __post_init__(self) -> None:
        if self.ranks != self.pgrid[0] * self.pgrid[1]:
            raise ValueError(f"pgrid {self.pgrid} does not hold {self.ranks} rank(s)")
        if self.probe_pgrid[0] * self.probe_pgrid[1] != 2:
            raise ValueError("probe_pgrid must hold exactly two ranks")

    @property
    def train_samples(self) -> int:
        return self.train_snapshots - 1

    @property
    def steps_per_epoch(self) -> int:
        return -(-self.train_samples // self.batch)

    def block(self, pgrid: tuple[int, int]) -> tuple[int, int]:
        """Interior block of one rank under ``pgrid`` (grids divide evenly)."""
        return self.grid // pgrid[0], self.grid // pgrid[1]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def load(name: str):
    """The workload module called ``name`` (one of ``NAMES``)."""
    return importlib.import_module(f"{__name__}.{name}")
