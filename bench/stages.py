"""The pinned ``generate -> train -> checkpoint -> evaluate -> rollout ->
residual`` pipeline, one function per stage.

Each stage is a span around calls into the program's public functions
plus that stage's correctness checks.  ``pipeline_euler64`` runs the
whole chain as its operation, ``train_seq96`` runs the training stage
alone, and a traced run of any workload runs the chain once at the
workload's own shape to get the per-stage layer metrics.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Any

import numpy as np

from repro.core import (
    Callback,
    ParallelPredictor,
    ParallelTrainer,
    evaluate_parallel,
    load_parallel_models,
    save_parallel_models,
)
from repro.experiments.common import DataConfig, default_training_config, prepare_data
from repro.scenarios import cnn_config, scenario_residual

from .harness import OpResult, check_rollout, scratch_file, timed
from .workloads import SCENARIO, Shape

STAGES = ("data", "train", "checkpoint", "evaluate", "rollout", "residual")


class StepTimer(Callback):
    """Per-batch wall time of one rank's ``Engine``.

    Times land in a buffer allocated before the ranks fork, so they
    survive the rank process without touching what it returns.
    """

    def __init__(self, buffer: Any, offset: int) -> None:
        self._buffer = buffer
        self._next = offset
        self._start = 0.0

    def on_batch_start(self, engine: Any) -> None:
        self._start = time.perf_counter()

    def on_batch_end(self, engine: Any) -> None:
        self._buffer[self._next] = time.perf_counter() - self._start
        self._next += 1


def halo_closed_form(shape: Shape, pgrid: tuple[int, int], channels: int, halo: int, itemsize: int = 8):
    """``(messages, bytes)`` one halo exchange sends over all ranks of a
    non-periodic ``pgrid``: phase 1 swaps rows, phase 2 swaps columns of
    the row-extended block."""
    py, px = pgrid
    h, w = shape.block(pgrid)
    row_msgs = 2 * (py - 1) * px
    col_msgs = 2 * py * (px - 1)
    volume = row_msgs * channels * halo * w + col_msgs * channels * (h + 2 * halo) * halo
    return row_msgs + col_msgs, volume * itemsize


def make_data(shape: Shape):
    """The scenario's normalized train/validation snapshots.  The paper's
    pulse is deterministic, so the seed enters later: network
    initialization and batch shuffle."""
    return prepare_data(
        DataConfig(
            grid_size=shape.grid,
            num_snapshots=shape.train_snapshots + shape.val_snapshots,
            num_train=shape.train_snapshots,
            scenario=SCENARIO,
        )
    )


def train(shape: Shape, data: Any, seed: int, tracer: Any):
    """Communication-free training on ``shape.ranks`` ranks.

    One rank runs ``execution="serial"`` — exactly the body of
    ``train_sequential_baseline``, spelled out because that wrapper has
    no callback hook for the step timer.  Returns ``(training result,
    seconds inside train(), step seconds [rank, step], failures)``.
    """
    config = default_training_config(epochs=shape.epochs, seed=seed).replace(batch_size=shape.batch)
    steps = shape.epochs * shape.steps_per_epoch
    buffer = multiprocessing.RawArray("d", shape.ranks * steps)
    trainer = ParallelTrainer(
        cnn_config(SCENARIO),
        config,
        num_ranks=shape.ranks,
        pgrid=shape.pgrid,
        seed=seed,
        callback_factory=lambda rank: [StepTimer(buffer, rank * steps)],
    )
    with tracer.span("core.parallel.train"):
        seconds, result = timed(
            lambda: trainer.train(data.train, execution="processes" if shape.ranks > 1 else "serial")
        )
    failures = []
    for rank in result.rank_results:
        losses = rank.history.epoch_losses
        if not np.isfinite(losses).all() or (len(losses) > 1 and not losses[-1] < losses[0]):
            failures.append(f"train: rank {rank.rank} losses {losses} not finite and decreasing")
    step_seconds = np.asarray(buffer[:]).reshape(shape.ranks, steps)
    if not (step_seconds > 0).all():
        failures.append("train: the step timer missed a batch")
    return result, seconds, step_seconds, failures


def checkpoint(result: Any, tracer: Any):
    """Save and reload the per-rank models; the round trip is bit-exact."""
    path = scratch_file(".npz")
    try:
        with tracer.span("core.checkpoint.save"):
            save_s, _ = timed(lambda: save_parallel_models(path, result, scenario=SCENARIO))
        size = path.stat().st_size
        with tracer.span("core.checkpoint.load"):
            load_s, (models, decomposition, _) = timed(lambda: load_parallel_models(path))
    finally:
        path.unlink(missing_ok=True)
    failures = []
    for rank, model in zip(result.rank_results, models):
        loaded = model.state_dict()
        if loaded.keys() != rank.state_dict.keys() or not all(
            np.array_equal(loaded[key], rank.state_dict[key]) for key in loaded
        ):
            failures.append(f"checkpoint: rank {rank.rank} did not round-trip bit-identically")
    return models, decomposition, {"save_s": save_s, "load_s": load_s, "bytes": size}, failures


def run_pipeline(shape: Shape, seed: int, tracer: Any) -> OpResult:
    """The whole chain; one attempted operation per stage."""
    seconds: dict[str, float] = {}
    failures: list[str] = []

    with tracer.span("experiments.prepare_data"):
        seconds["data"], data = timed(lambda: make_data(shape))

    result, seconds["train"], step_seconds, train_failures = train(shape, data, seed, tracer)
    failures += train_failures

    models, decomposition, files, checkpoint_failures = checkpoint(result, tracer)
    seconds["checkpoint"] = files["save_s"] + files["load_s"]
    failures += checkpoint_failures

    with tracer.span("core.evaluation.evaluate_parallel"):
        seconds["evaluate"], evaluation = timed(lambda: evaluate_parallel(result, data.validation))
    val_rel_l2 = float(evaluation.global_relative_l2)
    if not 0.0 < val_rel_l2 < 1.0:
        failures.append(f"evaluate: val_rel_l2 {val_rel_l2} is no better than predicting zero")

    predictor = ParallelPredictor(models, decomposition)
    initial = data.validation.snapshots[0]
    with tracer.span("core.inference.rollout"):
        seconds["rollout"], rollout = timed(
            lambda: predictor.rollout(initial, shape.rollout_steps, execution="processes")
        )
    messages, volume = halo_closed_form(shape, shape.pgrid, initial.shape[0], predictor.halo)
    failures += check_rollout(
        rollout, shape.rollout_steps, messages * shape.rollout_steps, volume * shape.rollout_steps
    )

    with tracer.span("scenarios.scenario_residual"):
        seconds["residual"], report = timed(
            lambda: scenario_residual(SCENARIO, data.denormalize(rollout.trajectory), data.dt)
        )
    if not np.isfinite(report.normalized):
        failures.append("residual: physics residual is not finite")

    return OpResult(
        inner_s=seconds["train"],
        work=shape.train_samples * shape.epochs,
        attempted=len(STAGES),
        failures=failures,
        detail={
            "stage_s": seconds,
            "step_s": step_seconds,
            "val_rel_l2": val_rel_l2,
            "checkpoint": files,
        },
    )
