"""``rollout_euler256`` — paper-scale inference, compute-bound.

256², ``pgrid=(1, 2)`` (column halos, phase 2), 20 steps per call.
Halo strips are 16 640 B >= ``SHM_THRESHOLD_BYTES`` and each rank
returns a 22 MB trajectory, so the shared-memory path carries both.
See ``rollout.py`` for the restart rule and the range guard.
"""

from . import Shape
from .rollout import op, setup, verify  # noqa: F401 - the workload interface

NAME = "rollout_euler256"
KIND = "rollout"
WHY = (
    "InferencePlan.run (tensor kernels, no-grad, warm workspace) does >=85% of the work, comm "
    "<10%: kernel/precision/plan changes show here and must not move rollout_comm32."
)
SHAPE = Shape(
    grid=256,
    ranks=2,
    pgrid=(1, 2),
    probe_pgrid=(1, 2),
    train_snapshots=3,
    val_snapshots=2,
    epochs=1,
    batch=1,
    rollout_steps=20,
)
