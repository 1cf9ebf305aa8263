"""Parallel evaluation of trained subdomain models.

Evaluation, like training, decomposes over subdomains: each rank scores
its own network on its own validation sub-fields; a single reduction
aggregates the sufficient statistics.  This gives exact global metrics
at per-rank cost — and demonstrates the one place (besides the
inference halo exchange) where the paper's pipeline touches a
collective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import mpi
from ..data.dataset import SnapshotDataset
from ..exceptions import ConfigurationError
from .metrics import per_channel, relative_l2
from .parallel import ParallelTrainingResult
from .subdomain_data import build_rank_dataset
from .trainer import predict


@dataclass
class ParallelEvaluation:
    """Global and per-rank single-step validation errors."""

    global_relative_l2: float
    global_rmse: float
    per_rank_relative_l2: list[float]
    num_samples: int

    def worst_rank(self) -> int:
        """Rank with the largest local error (load-quality indicator)."""
        return int(np.argmax(self.per_rank_relative_l2))


def evaluate_parallel(
    result: ParallelTrainingResult,
    validation: SnapshotDataset,
    fill: str = "zero",
) -> ParallelEvaluation:
    """Score every rank's network on its validation block in parallel.

    Sufficient statistics (sum of squared errors / squares of targets /
    point counts) are reduced with a single ``allreduce``, so the global
    numbers are *exactly* what a serial evaluation of the assembled
    prediction would produce.
    """
    if validation.field_shape != result.decomposition.field_shape:
        raise ConfigurationError(
            f"validation field {validation.field_shape} does not match the "
            f"trained decomposition {result.decomposition.field_shape}"
        )
    cfg = result.cnn_config
    decomposition = result.decomposition
    models = result.build_models()

    def program(comm: mpi.Communicator):
        data = build_rank_dataset(
            validation,
            decomposition,
            comm.rank,
            halo=cfg.input_halo,
            fill=fill,
        )
        prediction = predict(models[comm.rank], data.inputs)
        diff = prediction - data.targets
        local = np.array(
            [
                float(np.sum(diff * diff)),
                float(np.sum(data.targets * data.targets)),
                float(diff.size),
            ]
        )
        totals = comm.allreduce(local, op=mpi.SUM)
        local_rel = float(np.sqrt(local[0] / max(local[1], 1e-30)))
        return totals, local_rel

    outputs = mpi.run_parallel(program, decomposition.num_subdomains)
    totals = outputs[0][0]
    per_rank = [out[1] for out in outputs]
    sse, sst, count = totals
    return ParallelEvaluation(
        global_relative_l2=float(np.sqrt(sse / max(sst, 1e-30))),
        global_rmse=float(np.sqrt(sse / max(count, 1.0))),
        per_rank_relative_l2=per_rank,
        num_samples=validation.num_samples,
    )


def skill_vs_identity(
    predicted: np.ndarray,
    reference: np.ndarray,
    steps: Sequence[int],
    channel_names: tuple[str, ...],
) -> dict[int, dict[str, float]]:
    """Skill of a rollout over "predict no change", per channel, at each
    of ``steps``: ``1 - err_model / err_identity``, both the relative L2
    error against ``reference[step]``, the identity's prediction being
    ``reference[0]``.  1 is exact, 0 no better than the identity, and
    below 0 worse; NaN where the identity is exact (the channel did not
    move), since nothing can beat it there.

    ``predicted`` and ``reference`` are ``(T + 1, C, H, W)`` trajectories
    from the same initial state; every step must lie in ``1..T``.
    """
    predicted, reference = np.asarray(predicted), np.asarray(reference)
    if predicted.shape != reference.shape or predicted.ndim != 4:
        raise ConfigurationError(
            f"need two (T + 1, C, H, W) trajectories of one shape, got "
            f"{predicted.shape} and {reference.shape}"
        )
    horizon = reference.shape[0] - 1
    skill: dict[int, dict[str, float]] = {}
    for step in steps:
        if not 1 <= step <= horizon:
            raise ConfigurationError(f"step {step} outside the rollout's 1..{horizon}")
        model = per_channel(relative_l2, predicted[step], reference[step], channel_names)
        identity = per_channel(relative_l2, reference[0], reference[step], channel_names)
        skill[step] = {
            name: 1.0 - model[name] / identity[name] if identity[name] > 0.0 else np.nan
            for name in model
        }
    return skill
