"""What the two rollout workloads share: seeded Table-I networks, one
``ParallelPredictor.rollout(initial, steps, execution="processes")``
call per operation, always restarted from the same initial field.

Why restart: seeded, untrained networks contract by about 0.43x per
step (|u| reached 1e-188 after 500 steps when sizing), so a long rollout
would end up timing denormal arithmetic.  The floating-range guard in
``harness.check_rollout`` fails any operation whose last frame leaves
[1e-100, 1e100]; do not "extend" ``rollout_steps`` past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core import CNNConfig, ParallelPredictor, SubdomainCNN
from repro.domain.decomposition import BlockDecomposition

from ..harness import OpResult, check_rollout, timed
from ..stages import halo_closed_form
from . import Shape

#: steps of the ``threads`` rollout that warms the plans and is the
#: bit-equality reference for the first ``processes`` rollout
REFERENCE_STEPS = 3


@dataclass
class RolloutState:
    shape: Shape
    pgrid: tuple[int, int]
    predictor: ParallelPredictor
    initial: np.ndarray
    reference: np.ndarray
    messages_per_step: int
    bytes_per_step: int


def build(shape: Shape, pgrid: tuple[int, int], seed: int) -> RolloutState:
    """Seeded networks (rank r from ``seed + r``, as ``ParallelTrainer``
    seeds them), a seeded standard-normal initial field, and one short
    ``threads`` rollout as warm-up."""
    config = CNNConfig()
    decomposition = BlockDecomposition((shape.grid, shape.grid), pgrid)
    models = [
        SubdomainCNN(config, rng=np.random.default_rng(seed + rank))
        for rank in range(decomposition.num_subdomains)
    ]
    predictor = ParallelPredictor(models, decomposition)
    initial = np.random.default_rng(seed).standard_normal(
        (config.channels[0], shape.grid, shape.grid)
    )
    steps = min(REFERENCE_STEPS, shape.rollout_steps)
    reference = predictor.rollout(initial, steps, execution="threads").trajectory
    messages, volume = halo_closed_form(shape, pgrid, config.channels[0], predictor.halo)
    return RolloutState(shape, pgrid, predictor, initial, reference, messages, volume)


def call(state: RolloutState, tracer: Any) -> tuple[float, Any, list[str]]:
    """One timed ``rollout()`` and its per-call checks."""
    steps = state.shape.rollout_steps
    with tracer.span("core.inference.rollout"):
        seconds, result = timed(
            lambda: state.predictor.rollout(state.initial, steps, execution="processes")
        )
    failures = check_rollout(
        result, steps, state.messages_per_step * steps, state.bytes_per_step * steps
    )
    frames = state.reference.shape[0]
    if not failures and not np.array_equal(result.trajectory[:frames], state.reference):
        failures.append("rollout: processes and threads backends disagree bitwise")
    return seconds, result, failures


def setup(shape: Shape, seed: int) -> RolloutState:
    return build(shape, shape.pgrid, seed)


def op(state: RolloutState, tracer: Any) -> OpResult:
    seconds, _, failures = call(state, tracer)
    return OpResult(inner_s=seconds, work=state.shape.rollout_steps, failures=failures)


def verify(state: RolloutState, results: list[OpResult]) -> list[str]:
    return []
