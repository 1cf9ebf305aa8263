"""Float32 against the float64 oracle: the accuracy gate of the default.

The process trains and infers in float32 by default, as the paper's
PyTorch did; float64 stays the oracle.  This runner is the evidence the
default stands on.  For every scenario, at both precisions and over
several seeds, it trains a Table-I network at a small Fig.-3-style
budget (standardized channels, one rank, Adam, MSE) and rolls it out
from validation frame 0.  Per run it records, at rollout steps 1 and 8:

* the per-channel relative L2 error against the solver's trajectory;
* the per-channel skill over "predict no change"
  (:func:`~repro.core.evaluation.skill_vs_identity`);
* the relative drift of the equation's energy diagnostic
  (:meth:`~repro.solver.equations.Equation.energy`) over the whole
  rollout, next to the solver's own drift over the same frames;
* the training wall time.

The data, the initial weights and the batch order are the same at both
precisions: only the compute dtype differs.

**The gate**, per scenario, channel, step and metric (error and skill):
float32's median over the seeds lies inside float64's range over the
seeds (min to max), widened on each side by :data:`WIDEN` (5%) of that
bound's magnitude.  A channel that does not move over the rollout has
no skill (NaN); it is gated on its error alone.
:meth:`PrecisionGateResult.report` prints every gap next to the rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import ParallelPredictor, ParallelTrainer, per_channel, relative_l2
from ..core.evaluation import skill_vs_identity
from ..obs import trace
from ..scenarios import available_scenarios, build_equation, build_grid, channels
from ..tensor import precision
from .common import (
    DataConfig,
    ExperimentData,
    default_cnn_config,
    default_training_config,
    prepare_data,
)
from .reporting import format_table

#: The two compute modes, the oracle first.
PRECISIONS = ("float64", "float32")

#: The rollout steps every run is scored at.
STEPS = (1, 8)

#: How far the gate widens float64's seed range, as a share of each
#: bound's magnitude.
WIDEN = 0.05


@dataclass(frozen=True)
class PrecisionGateConfig:
    """Budget of the comparison (defaults: every builtin scenario, seeds
    0-4, 32² grid, 60 epochs over 21 training pairs; every run trains on
    one rank).  The snapshot count keeps the validation frames moving:
    at 32² Allen-Cahn has separated into one uniform phase, which no
    step changes, by snapshot 56."""

    scenarios: tuple[str, ...] = field(default_factory=available_scenarios)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    grid_size: int = 32
    num_snapshots: int = 32
    num_train: int = 22
    epochs: int = 60


@dataclass(frozen=True)
class PrecisionRun:
    """One trained network's scores; ``rel_l2`` and ``skill`` map a
    rollout step to ``{channel: value}``."""

    scenario: str
    precision: str
    seed: int
    rel_l2: dict[int, dict[str, float]]
    skill: dict[int, dict[str, float]]
    energy_drift: float
    solver_energy_drift: float
    train_seconds: float


@dataclass(frozen=True)
class GateRow:
    """One scenario x channel x step x metric cell of the gate."""

    scenario: str
    channel: str
    step: int
    metric: str
    low: float
    high: float
    median64: float
    median32: float

    @property
    def gap(self) -> float:
        """``|median32 - median64|`` relative to ``|median64|``."""
        return abs(self.median32 - self.median64) / max(abs(self.median64), 1e-30)

    @property
    def passed(self) -> bool:
        low, high = self.low - WIDEN * abs(self.low), self.high + WIDEN * abs(self.high)
        return low <= self.median32 <= high


@dataclass
class PrecisionGateResult:
    config: PrecisionGateConfig
    runs: list[PrecisionRun]

    def _values(self, scenario: str, mode: str, metric: str, step: int, name: str):
        return [
            getattr(run, metric)[step][name]
            for run in self.runs
            if run.scenario == scenario and run.precision == mode
        ]

    def rows(self) -> list[GateRow]:
        rows = []
        for scenario in self.config.scenarios:
            for step in STEPS:
                for name in channels(scenario):
                    for metric in ("rel_l2", "skill"):
                        oracle = self._values(scenario, "float64", metric, step, name)
                        single = self._values(scenario, "float32", metric, step, name)
                        if np.isnan(oracle).all() and np.isnan(single).all():
                            continue  # no skill where the identity is exact
                        rows.append(GateRow(
                            scenario, name, step, metric, min(oracle), max(oracle),
                            float(np.median(oracle)), float(np.median(single)),
                        ))  # fmt: skip
        return rows

    def failures(self) -> list[str]:
        """One line per cell where float32's median leaves the band."""
        return [
            f"{r.scenario} {r.channel} step {r.step} {r.metric}: float32 median "
            f"{r.median32:.5g} outside float64 [{r.low:.5g}, {r.high:.5g}] +/- {WIDEN:.0%}"
            for r in self.rows()
            if not r.passed
        ]

    def summary(self) -> list[tuple]:
        """Per scenario and precision: seed medians of the step errors
        and skills (mean over channels), the energy drifts and the
        training seconds."""
        out = []
        for scenario in self.config.scenarios:
            for mode in PRECISIONS:
                runs = [r for r in self.runs if r.scenario == scenario and r.precision == mode]
                row: list = [scenario, mode]
                for step in STEPS:
                    for metric in ("rel_l2", "skill"):
                        means = [np.mean(list(getattr(r, metric)[step].values())) for r in runs]
                        row.append(np.median(means))
                row.append(np.median([r.energy_drift for r in runs]))
                row.append(runs[0].solver_energy_drift)
                row.append(np.median([r.train_seconds for r in runs]))
                out.append(tuple(row))
        return out

    def report(self) -> str:
        cfg = self.config
        headers = ["scenario", "precision"]
        for step in STEPS:
            headers += [f"rel. L2 @{step}", f"skill @{step}"]
        headers += ["energy drift", "solver drift", "train [s]"]
        summary = format_table(
            headers,
            self.summary(),
            title=(
                f"Float32 vs float64, seed medians over seeds {list(cfg.seeds)} "
                f"({cfg.grid_size}², P=1, {cfg.epochs} epochs; "
                "errors and skills are channel means)"
            ),
        )
        rows = self.rows()
        cells = format_table(
            ["scenario", "channel", "step", "metric", "f64 min", "f64 max",
             "f64 median", "f32 median", "gap", "pass"],
            [
                (r.scenario, r.channel, r.step, r.metric, r.low, r.high, r.median64,
                 r.median32, r.gap, "yes" if r.passed else "NO")
                for r in rows
            ],
            title=(
                "Gate: float32's seed median inside float64's seed range, "
                f"widened by {WIDEN:.0%} of each bound; gap = |f32 - f64| / |f64| "
                "of the medians"
            ),
        )  # fmt: skip
        worst = max(rows, key=lambda r: r.gap)
        verdict = (
            f"{len(rows) - len(self.failures())}/{len(rows)} cells pass; largest "
            f"median gap {worst.gap:.2e} ({worst.scenario} {worst.channel} step "
            f"{worst.step} {worst.metric})"
        )
        return "\n\n".join([summary, cells, verdict])


def _energy_drift(equation, grid, trajectory: np.ndarray) -> float:
    """Relative change of the energy diagnostic from the first frame to
    the last; NaN when the first frame's energy is 0."""
    first = equation.energy(trajectory[0], grid.dx, grid.dy)
    last = equation.energy(trajectory[-1], grid.dx, grid.dy)
    return (last - first) / abs(first) if first != 0.0 else np.nan


def _run_one(
    experiment: ExperimentData,
    config: PrecisionGateConfig,
    scenario: str,
    mode: str,
    seed: int,
) -> PrecisionRun:
    horizon = max(STEPS)
    names = channels(scenario)
    reference = experiment.raw_validation()[: horizon + 1]
    with precision(mode):
        trainer = ParallelTrainer(
            default_cnn_config(scenario=scenario),
            default_training_config(epochs=config.epochs, seed=seed),
            num_ranks=1,
            seed=seed,
        )
        start = trace.clock()
        result = trainer.train(experiment.train, execution="serial")
        seconds = trace.clock() - start
        predictor = ParallelPredictor(result.build_models(), result.decomposition)
        rollout = predictor.rollout(experiment.validation.snapshots[0], horizon)
    predicted = experiment.denormalize(np.asarray(rollout.trajectory))
    equation, grid = build_equation(scenario), build_grid(scenario, config.grid_size)
    return PrecisionRun(
        scenario,
        mode,
        seed,
        {s: per_channel(relative_l2, predicted[s], reference[s], names) for s in STEPS},
        skill_vs_identity(predicted, reference, STEPS, names),
        _energy_drift(equation, grid, predicted),
        _energy_drift(equation, grid, reference),
        seconds,
    )


def run_precision_gate(config: PrecisionGateConfig | None = None) -> PrecisionGateResult:
    """Train and score every (scenario, precision, seed) of ``config``."""
    config = config if config is not None else PrecisionGateConfig()
    runs = []
    for scenario in config.scenarios:
        experiment = prepare_data(
            DataConfig(
                grid_size=config.grid_size,
                num_snapshots=config.num_snapshots,
                num_train=config.num_train,
                scenario=scenario,
            )
        )
        for seed in config.seeds:
            for mode in PRECISIONS:
                runs.append(_run_one(experiment, config, scenario, mode, seed))
    return PrecisionGateResult(config, runs)
