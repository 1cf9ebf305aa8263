"""``train_seq96`` — Fig. 4's P = 1 point: one network, one large block.

``train_sequential_baseline`` at 96², batch 16, float64; one operation
is one epoch over 16 samples, i.e. one optimizer step on a
``16 x 4 x 100 x 100`` input.  Data generation is set-up.

Each step allocates (and frees) about 1.8 GB of im2col columns and
autograd buffers.  On the reference VM a first touch of memory the
host took back costs ~6 s/GiB (``machine.fresh_touch_gbs``), so the
first step of a process takes up to 12 s and a warm one about 2 s; the
warm-up operation in ``setup`` pays the cold cost, which therefore
shows in the first of the three set-ups, not in ``op_ms_p50``.
"""

from __future__ import annotations

from ..harness import UNTRACED, OpResult
from ..stages import make_data, train
from . import Shape

NAME = "train_seq96"
KIND = "train"
WHY = (
    "Same tensor/nn/engine layers as pipeline_euler64 but one large 96x96 block whose per-step "
    "working set is GBs: memory-bound; denominator of any strong-scaling claim."
)
SHAPE = Shape(
    grid=96,
    ranks=1,
    pgrid=(1, 1),
    probe_pgrid=(1, 2),
    train_snapshots=17,
    val_snapshots=3,
    epochs=1,
    batch=16,
    rollout_steps=5,
)


def setup(shape: Shape, seed: int):
    data = make_data(shape)
    state = (shape, seed, data)
    op(state, UNTRACED)
    return state


def op(state, tracer) -> OpResult:
    shape, seed, data = state
    _, seconds, step_seconds, failures = train(shape, data, seed, tracer)
    return OpResult(
        inner_s=seconds,
        work=shape.train_samples * shape.epochs,
        failures=failures,
        detail={"step_s": step_seconds},
    )


def verify(state, results: list[OpResult]) -> list[str]:
    return []
