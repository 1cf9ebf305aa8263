"""``pipeline_euler64`` — the user-visible run.

ROADMAP's pinned pipeline on ``euler-gaussian`` at 64², 150 snapshots
(100 train), float64: ``prepare_data`` -> ``ParallelTrainer(num_ranks=2,
pgrid=(1, 2)).train(execution="processes")`` -> ``save_parallel_models``
/ ``load_parallel_models`` -> ``evaluate_parallel`` ->
``ParallelPredictor.rollout`` (20 steps) -> ``scenario_residual``.

Two epochs per operation (about 5.7 s on the 2-core reference box, the
first of a process about 8 s on cold memory), so a 20 s run holds four
whole pipelines; the budget is the driver's, see ``bench/README.md``.
"""

from __future__ import annotations

import dataclasses

from ..harness import UNTRACED, OpResult
from ..stages import run_pipeline
from . import Shape

NAME = "pipeline_euler64"
KIND = "pipeline"
WHY = (
    "The user-visible generate->train->checkpoint->evaluate->rollout->residual run: >=90% "
    "Engine.fit on small 64x32 blocks, every other layer a visible stage."
)
SHAPE = Shape(
    grid=64,
    ranks=2,
    pgrid=(1, 2),
    probe_pgrid=(1, 2),
    train_snapshots=100,
    val_snapshots=50,
    epochs=2,
    batch=16,
    rollout_steps=20,
)


def setup(shape: Shape, seed: int):
    """Nothing is prepared ahead — data generation is a measured stage.
    The warm-up operation is the same chain at toy size: it pays the
    lazy imports, the first fork and the BLAS start-up."""
    toy = dataclasses.replace(
        shape, grid=16, train_snapshots=5, val_snapshots=2, epochs=1, batch=4, rollout_steps=2
    )
    run_pipeline(toy, seed, UNTRACED)
    return shape, seed


def op(state, tracer) -> OpResult:
    shape, seed = state
    return run_pipeline(shape, seed, tracer)


def verify(state, results: list[OpResult]) -> list[str]:
    """Same seed, same inputs: the quality number repeats exactly."""
    scores = {r.detail["val_rel_l2"] for r in results}
    return [] if len(scores) == 1 else [f"val_rel_l2 differs between identical runs: {sorted(scores)}"]
