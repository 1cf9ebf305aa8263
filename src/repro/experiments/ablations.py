"""Ablation studies for the design choices the paper discusses.

Each runner isolates one axis (padding strategy, loss, optimizer,
rollout depth, parallelization scheme) while holding the rest of the
pipeline at the calibrated defaults of :mod:`repro.experiments.common`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..obs import trace
from ..core import (
    PaddingStrategy,
    ParallelPredictor,
    ParallelTrainer,
    TrainingConfig,
    per_channel,
    relative_l2,
    train_weight_averaging,
)
from ..core.inference import EnsembleStepper
from ..exceptions import ConfigurationError
from .common import (
    DataConfig,
    ExperimentData,
    default_cnn_config,
    default_training_config,
    prepare_data,
)
from .reporting import format_table


def _single_step_error(
    experiment: ExperimentData,
    result,
    sample_index: int = 0,
) -> float:
    """Global relative-L2 error of one validation step."""
    model_input, target = experiment.validation[sample_index]
    predictor = ParallelPredictor(result.build_models(), result.decomposition)
    prediction = predictor.rollout(model_input, 1).trajectory[1]
    return relative_l2(experiment.denormalize(prediction), experiment.denormalize(target))


# ----------------------------------------------------------------------
# Padding strategies (Sec. III, options 1-2 and the NEIGHBOR_ALL extreme)
# ----------------------------------------------------------------------
@dataclass
class AblationRow:
    name: str
    value: float
    train_time: float


@dataclass
class AblationResult:
    title: str
    metric_name: str
    rows: list[AblationRow]

    def report(self) -> str:
        return format_table(
            ["variant", self.metric_name, "train time [s]"],
            [(r.name, r.value, r.train_time) for r in self.rows],
            title=self.title,
        )

    def best(self) -> AblationRow:
        return min(self.rows, key=lambda r: r.value)


def run_padding_ablation(
    data: DataConfig | None = None,
    training: TrainingConfig | None = None,
    num_ranks: int = 4,
    strategies: tuple[PaddingStrategy, ...] = tuple(PaddingStrategy),
    seed: int = 0,
) -> AblationResult:
    """Compare the padding strategies on single-step validation error."""
    data = data if data is not None else DataConfig()
    training = training if training is not None else default_training_config(epochs=15)
    experiment = prepare_data(data)
    rows = []
    for strategy in strategies:
        cnn = default_cnn_config(strategy, scenario=data.scenario)
        trainer = ParallelTrainer(cnn, training, num_ranks=num_ranks, seed=seed)
        start = trace.clock()
        result = trainer.train(experiment.train, execution="serial")
        elapsed = trace.clock() - start
        error = _single_step_error(experiment, result)
        rows.append(AblationRow(strategy.value, error, elapsed))
    return AblationResult(
        title=f"Padding-strategy ablation (P={num_ranks})",
        metric_name="val rel. L2 (1 step)",
        rows=rows,
    )


# ----------------------------------------------------------------------
# Loss functions (Sec. II: MAPE motivated over MSE)
# ----------------------------------------------------------------------
def run_loss_ablation(
    data: DataConfig | None = None,
    losses: tuple[str, ...] = ("mse", "mae", "mape", "huber"),
    epochs: int = 15,
    num_ranks: int = 4,
    seed: int = 0,
) -> AblationResult:
    """Compare losses under the same budget; evaluation is loss-neutral
    (relative L2 of the physical fields).

    MAPE is evaluated on raw (un-normalized) fields, as the paper
    intends — percentage errors on standardized channels that cross
    zero are meaningless.
    """
    data = data if data is not None else DataConfig()
    rows = []
    for loss in losses:
        use_raw = loss == "mape"
        experiment = prepare_data(
            dataclasses.replace(data, normalize=not use_raw and data.normalize)
        )
        training = default_training_config(
            epochs=epochs,
            loss=loss,
            lr=0.01 if use_raw else 0.002,
            seed=seed,
            loss_kwargs={"epsilon": 1e-2} if loss == "mape" else {},
        )
        trainer = ParallelTrainer(default_cnn_config(scenario=data.scenario), training, num_ranks=num_ranks, seed=seed)
        start = trace.clock()
        result = trainer.train(experiment.train, execution="serial")
        elapsed = trace.clock() - start
        rows.append(AblationRow(loss, _single_step_error(experiment, result), elapsed))
    return AblationResult(
        title=f"Loss-function ablation (P={num_ranks})",
        metric_name="val rel. L2 (1 step)",
        rows=rows,
    )


# ----------------------------------------------------------------------
# Optimizers (Sec. II: Adam chosen over SGD)
# ----------------------------------------------------------------------
def run_optimizer_ablation(
    data: DataConfig | None = None,
    epochs: int = 15,
    num_ranks: int = 4,
    seed: int = 0,
) -> AblationResult:
    """Adam vs. SGD vs. SGD+momentum under equal budget."""
    data = data if data is not None else DataConfig()
    experiment = prepare_data(data)
    variants = [
        ("adam", {"optimizer": "adam", "lr": 0.002}),
        ("sgd", {"optimizer": "sgd", "lr": 0.002}),
        (
            "sgd+momentum",
            {"optimizer": "sgd", "lr": 0.002, "optimizer_kwargs": {"momentum": 0.9}},
        ),
    ]
    rows = []
    for name, overrides in variants:
        training = default_training_config(epochs=epochs, seed=seed, **overrides)
        trainer = ParallelTrainer(default_cnn_config(scenario=data.scenario), training, num_ranks=num_ranks, seed=seed)
        start = trace.clock()
        result = trainer.train(experiment.train, execution="serial")
        elapsed = trace.clock() - start
        rows.append(AblationRow(name, _single_step_error(experiment, result), elapsed))
    return AblationResult(
        title=f"Optimizer ablation (P={num_ranks})",
        metric_name="val rel. L2 (1 step)",
        rows=rows,
    )


# ----------------------------------------------------------------------
# D4 data augmentation (library extension; the paper trains on a single
# trajectory, which augmentation multiplies 8-fold for free)
# ----------------------------------------------------------------------
def run_augmentation_ablation(
    data: DataConfig | None = None,
    epochs: int = 8,
    num_ranks: int = 4,
    seed: int = 0,
) -> AblationResult:
    """Train with and without D4 augmentation of the training
    trajectory, equal epoch budget (the augmented run sees 8x the
    samples per epoch; its higher wall time is reported alongside)."""
    from ..data import SnapshotDataset, augment_dataset

    data = data if data is not None else DataConfig()
    experiment = prepare_data(data)
    training = default_training_config(epochs=epochs, seed=seed)
    rows = []
    for name, train_set in (
        ("baseline", experiment.train),
        ("d4_augmented", augment_dataset(experiment.train)),
    ):
        trainer = ParallelTrainer(default_cnn_config(scenario=data.scenario), training, num_ranks=num_ranks, seed=seed)
        start = trace.clock()
        result = trainer.train(train_set, execution="serial")
        elapsed = trace.clock() - start
        rows.append(AblationRow(name, _single_step_error(experiment, result), elapsed))
    return AblationResult(
        title=f"D4-augmentation ablation (P={num_ranks})",
        metric_name="val rel. L2 (1 step)",
        rows=rows,
    )


# ----------------------------------------------------------------------
# Rollout error accumulation (Sec. IV-B discussion)
# ----------------------------------------------------------------------
@dataclass
class RolloutStudyResult:
    steps: list[int]
    errors: list[float]
    per_channel_errors: list[dict[str, float]]
    messages_sent: int
    bytes_sent: int

    def report(self) -> str:
        rows = [
            (s, e, *(pc[c] for c in pc))
            for s, e, pc in zip(self.steps, self.errors, self.per_channel_errors)
        ]
        channels = list(self.per_channel_errors[0])
        return format_table(
            ["step", "rel. L2"] + channels,
            rows,
            title=(
                "Rollout error accumulation "
                f"({self.messages_sent} halo messages, {self.bytes_sent} bytes)"
            ),
        )


def run_rollout_study(
    data: DataConfig | None = None,
    training: TrainingConfig | None = None,
    num_ranks: int = 4,
    num_steps: int = 10,
    seed: int = 0,
) -> RolloutStudyResult:
    """Train once, roll the surrogate out ``num_steps`` steps, and track
    the error growth the paper attributes to missing temporal context."""
    if num_steps < 1:
        raise ConfigurationError(f"num_steps must be >= 1, got {num_steps}")
    data = data if data is not None else DataConfig()
    training = training if training is not None else default_training_config(epochs=25)
    experiment = prepare_data(data)
    if experiment.validation.num_samples < num_steps:
        raise ConfigurationError(
            f"validation set has {experiment.validation.num_samples} samples, "
            f"need >= {num_steps}"
        )
    trainer = ParallelTrainer(default_cnn_config(scenario=data.scenario), training, num_ranks=num_ranks, seed=seed)
    result = trainer.train(experiment.train, execution="serial")
    predictor = ParallelPredictor(result.build_models(), result.decomposition)
    initial = experiment.validation.snapshots[0]
    rollout = predictor.rollout(initial, num_steps)
    steps, errors, pcs = [], [], []
    for step in range(1, num_steps + 1):
        prediction = experiment.denormalize(rollout.trajectory[step])
        target = experiment.denormalize(experiment.validation.snapshots[step])
        steps.append(step)
        errors.append(relative_l2(prediction, target))
        pcs.append(per_channel(relative_l2, prediction, target))
    return RolloutStudyResult(steps, errors, pcs, rollout.messages_sent, rollout.bytes_sent)


# ----------------------------------------------------------------------
# Parallelization-scheme comparison (Sec. I: vs. Viviani et al.)
# ----------------------------------------------------------------------
@dataclass
class SchemeComparisonRow:
    scheme: str
    val_error: float
    train_time: float
    bytes_communicated: int


@dataclass
class SchemeComparisonResult:
    rows: list[SchemeComparisonRow]

    def report(self) -> str:
        return format_table(
            ["scheme", "val rel. L2 (1 step)", "train time [s]", "bytes communicated"],
            [(r.scheme, r.val_error, r.train_time, r.bytes_communicated) for r in self.rows],
            title="Parallelization schemes under an equal epoch budget",
        )


def run_scheme_comparison(
    data: DataConfig | None = None,
    epochs: int = 15,
    num_ranks: int = 4,
    seed: int = 0,
) -> SchemeComparisonResult:
    """Sequential vs. the paper's subdomain scheme vs. weight averaging.

    Expected shape (the paper's argument): the subdomain scheme trains
    ~P× faster than sequential at comparable accuracy and moves zero
    bytes; weight averaging also speeds training but degrades accuracy
    and pays allreduce traffic every epoch.  Every row's train time is
    the same region, ``Engine.fit`` (the slowest rank's for the subdomain
    scheme): building rank data and initialising a model count in none.
    """
    data = data if data is not None else DataConfig()
    experiment = prepare_data(data)
    training = default_training_config(epochs=epochs, seed=seed)
    rows: list[SchemeComparisonRow] = []

    # Sequential baseline (P = 1, ZERO padding so the same network also
    # serves as the weight-averaging replica architecture).
    seq_cnn = default_cnn_config(PaddingStrategy.ZERO, scenario=data.scenario)
    seq_trainer = ParallelTrainer(seq_cnn, training, num_ranks=1, seed=seed)
    seq_result = seq_trainer.train(experiment.train, execution="serial")
    rows.append(
        SchemeComparisonRow(
            "sequential (1 rank)",
            _single_step_error(experiment, seq_result),
            seq_result.max_train_time,
            0,
        )
    )

    # Paper scheme.
    par_trainer = ParallelTrainer(
        default_cnn_config(scenario=data.scenario), training, num_ranks=num_ranks, seed=seed
    )
    par_result = par_trainer.train(experiment.train, execution="serial")
    rows.append(
        SchemeComparisonRow(
            f"subdomain networks ({num_ranks} ranks)",
            _single_step_error(experiment, par_result),
            par_result.max_train_time,
            0,
        )
    )

    # Weight averaging (Viviani-style data parallelism).
    wa_result = train_weight_averaging(
        experiment.train,
        num_ranks=num_ranks,
        cnn_config=seq_cnn,
        training_config=training,
        seed=seed,
    )
    model = wa_result.build_model()
    sample_in, sample_target = experiment.validation[0]
    prediction = EnsembleStepper([model]).advance(sample_in)
    wa_error = relative_l2(
        experiment.denormalize(prediction), experiment.denormalize(sample_target)
    )
    rows.append(
        SchemeComparisonRow(
            f"weight averaging ({num_ranks} ranks)",
            wa_error,
            wa_result.train_time,
            wa_result.bytes_reduced,
        )
    )
    return SchemeComparisonResult(rows)
