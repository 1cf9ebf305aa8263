"""Fig. 4 — strong scaling of the training time, 1 → 64 ranks.

The paper reports "almost perfect" strong scaling because training is
communication-free: the parallel wall time equals the slowest rank's
local training time on 1/P of the data.  Two timing modes are provided:

``timing="faithful"`` (default)
    Each rank's training is executed *serially* and timed in isolation,
    on ``cores // P`` threads (at least one) as it would get running in
    parallel, so P = 1 uses the whole machine; the per-P wall time is
    the maximum over ranks.  This is the faithful model-based
    measurement: it reports what the machine would observe with P ranks
    sharing it, without their scheduling noise (see DESIGN.md).

``timing="measured"``
    The ranks actually run concurrently (``execution="processes"`` by
    default, one OS process per rank) and the per-P wall time is the
    real wall-clock of the parallel region.  This is the honest
    hardware measurement: it saturates — and stops improving — at the
    machine's core count, which is exactly the effect the faithful mode
    abstracts away.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import CNNConfig, ParallelTrainer, TrainingConfig
from ..exceptions import ConfigurationError
from .common import (
    DataConfig,
    adapt_cnn_to_scenario,
    default_cnn_config,
    default_training_config,
    prepare_data,
)
from .reporting import format_scaling_plot, format_table

#: The paper's core counts.
PAPER_RANK_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class Fig4Config:
    """Configuration of the strong-scaling study."""

    data: DataConfig = field(default_factory=lambda: DataConfig(grid_size=64, num_snapshots=60, num_train=50))
    cnn: CNNConfig = field(default_factory=default_cnn_config)
    training: TrainingConfig = field(default_factory=lambda: default_training_config(epochs=2))
    rank_counts: tuple[int, ...] = PAPER_RANK_COUNTS
    seed: int = 0
    #: repeat measurements and keep the minimum (noise suppression)
    repeats: int = 1
    #: ``"faithful"`` (serial per-rank max) or ``"measured"`` (real
    #: concurrent wall-clock) — see the module docstring.
    timing: str = "faithful"
    #: execution backend used by the ``measured`` mode.
    execution: str = "processes"

    def __post_init__(self) -> None:
        if not self.rank_counts:
            raise ConfigurationError("rank_counts must not be empty")
        if any(p < 1 for p in self.rank_counts):
            raise ConfigurationError(f"rank counts must be >= 1: {self.rank_counts}")
        if self.repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {self.repeats}")
        if self.timing not in ("faithful", "measured"):
            raise ConfigurationError(
                f"timing must be 'faithful' or 'measured', got {self.timing!r}"
            )
        if self.execution not in ("threads", "processes"):
            raise ConfigurationError(
                f"execution must be 'threads' or 'processes', got {self.execution!r}"
            )


@dataclass
class ScalingRow:
    """One point of the scaling curve."""

    num_ranks: int
    #: wall time of the parallel phase = max over ranks (seconds)
    train_time: float
    #: mean per-rank time (load-balance indicator)
    mean_rank_time: float
    speedup: float
    efficiency: float


@dataclass
class Fig4Result:
    """The measured strong-scaling curve."""

    config: Fig4Config
    rows: list[ScalingRow]

    @property
    def rank_counts(self) -> list[int]:
        return [r.num_ranks for r in self.rows]

    @property
    def times(self) -> list[float]:
        return [r.train_time for r in self.rows]

    def report(self) -> str:
        mode = self.config.timing
        title = "Fig. 4 — strong scaling of the parallel training scheme"
        if mode == "measured":
            title += f" [measured wall-clock, execution={self.config.execution}]"
        else:
            title += " [faithful per-rank max, serial execution]"
        table = format_table(
            ["P", "train time [s]", "mean rank time [s]", "speedup", "efficiency"],
            [
                (r.num_ranks, r.train_time, r.mean_rank_time, r.speedup, r.efficiency)
                for r in self.rows
            ],
            title=title,
        )
        plot = format_scaling_plot(self.rank_counts, self.times, label="time [s]")
        return table + "\n\n" + plot


def run_fig4(config: Fig4Config | None = None) -> Fig4Result:
    """Measure training time for every rank count in the configuration."""
    config = config if config is not None else Fig4Config()
    experiment = prepare_data(config.data)
    cnn = adapt_cnn_to_scenario(config.cnn, config.data.scenario)

    # Untimed warm-up: the very first training run pays one-off costs
    # (allocator growth, BLAS thread pool, page faults) that would
    # otherwise inflate the P=1 time and fake super-linear speedups.
    warmup = ParallelTrainer(
        cnn_config=cnn,
        training_config=config.training.replace(epochs=1),
        num_ranks=config.rank_counts[0],
        seed=config.seed,
    )
    warmup.train(experiment.train, execution="serial")

    rows: list[ScalingRow] = []
    base_time: float | None = None
    for num_ranks in config.rank_counts:
        best_max = np.inf
        best_mean = np.inf
        for _ in range(config.repeats):
            trainer = ParallelTrainer(
                cnn_config=cnn,
                training_config=config.training,
                num_ranks=num_ranks,
                seed=config.seed,
            )
            if config.timing == "measured":
                # Real concurrent execution: the scaling point is the
                # wall-clock of the whole parallel region as the caller
                # sees it (launch + training + teardown).
                result = trainer.train(experiment.train, execution=config.execution)
                observed = result.wall_time
            else:
                # Serial execution: ranks run one at a time, each on
                # cores // P threads, so each rank's time is uncontended;
                # the parallel wall time of the communication-free
                # scheme is their maximum.
                result = trainer.train(experiment.train, execution="serial")
                observed = result.max_train_time
            if observed < best_max:
                best_max = observed
                best_mean = result.mean_train_time
        if base_time is None:
            base_time = best_max
        speedup = base_time / best_max
        rows.append(
            ScalingRow(
                num_ranks=num_ranks,
                train_time=best_max,
                mean_rank_time=best_mean,
                speedup=speedup,
                efficiency=speedup / (num_ranks / config.rank_counts[0]),
            )
        )
    return Fig4Result(config=config, rows=rows)
