"""``rollout_comm32`` — the same call where fixed costs dominate.

32², ``pgrid=(2, 1)`` (row halos, phase 1), 50 steps per call: a step is
~2.4 ms of which ~1.4 ms is compute, the launch ~19 ms per call, and the
2 048 B strips take the pickle path.  See ``rollout.py`` for the
restart rule and the range guard.
"""

from . import Shape
from .rollout import op, setup, verify  # noqa: F401 - the workload interface

NAME = "rollout_comm32"
KIND = "rollout"
WHY = (
    "Same layers, per-step fixed costs dominate: mpi send/recv, HaloExchanger, run_parallel "
    "fork+teardown, result return. Catches per-call overhead a kernel change adds."
)
SHAPE = Shape(
    grid=32,
    ranks=2,
    pgrid=(2, 1),
    probe_pgrid=(2, 1),
    train_snapshots=9,
    val_snapshots=3,
    epochs=1,
    batch=4,
    rollout_steps=50,
)
