"""Extension — recurrent (ConvLSTM) surrogate vs. the paper's pure CNN.

Sec. IV-B proposes recurrent/LSTM layers fed with time-series data to
fix the rollout error accumulation.  This benchmark trains both models
on the same trajectory and compares their multi-step rollout error
curves on the full (undecomposed) domain.

Assertions are deliberately soft on "who wins" — at this training
budget either model can lead — but both must learn, and the report
records the comparative curve for EXPERIMENTS.md.
"""

import numpy as np
from conftest import run_once

from repro.core import (
    CNNConfig,
    EnsembleStepper,
    PaddingStrategy,
    RecurrentSurrogate,
    SubdomainCNN,
    TrainingConfig,
    WindowDataset,
    build_rank_dataset,
    relative_l2,
    rollout,
    train_network,
    train_recurrent,
)
from repro.data import SnapshotDataset, StandardNormalizer, generate_paper_dataset
from repro.domain import BlockDecomposition
from repro.experiments import format_table

WINDOW = 3
STEPS = 6


def run_comparison():
    produced = generate_paper_dataset(grid_size=32, num_snapshots=70, num_train=56)
    normalizer = StandardNormalizer().fit(produced.train.snapshots)
    train = SnapshotDataset(normalizer.transform(produced.train.snapshots))
    validation = SnapshotDataset(normalizer.transform(produced.validation.snapshots))

    config = TrainingConfig(epochs=20, batch_size=8, lr=0.002, loss="mse", seed=0)

    # Paper CNN on the full domain (P=1 so the comparison isolates the
    # temporal-context question from the decomposition question).
    decomp = BlockDecomposition(train.field_shape, (1, 1))
    cnn = SubdomainCNN(
        CNNConfig(strategy=PaddingStrategy.ZERO), rng=np.random.default_rng(0)
    )
    cnn_data = build_rank_dataset(train, decomp, 0, halo=0)
    train_network(cnn, cnn_data, config)

    lstm = RecurrentSurrogate(
        channels=4, hidden_channels=12, kernel_size=5, rng=np.random.default_rng(0)
    )
    lstm_data = WindowDataset.from_dataset(train, WINDOW)
    train_recurrent(lstm, lstm_data, config)

    # Rollouts from the validation head.
    cnn_rollout = rollout(EnsembleStepper([cnn]), validation.snapshots[WINDOW - 1], STEPS)
    lstm_rollout = lstm.rollout(validation.snapshots[:WINDOW], STEPS)

    rows = []
    cnn_errors, lstm_errors = [], []
    for step in range(1, STEPS + 1):
        target = validation.snapshots[WINDOW - 1 + step]
        cnn_err = relative_l2(cnn_rollout.trajectory[step], target)
        lstm_err = relative_l2(lstm_rollout[step - 1], target)
        cnn_errors.append(cnn_err)
        lstm_errors.append(lstm_err)
        rows.append((step, cnn_err, lstm_err))
    report = format_table(
        ["rollout step", "CNN rel. L2", "ConvLSTM rel. L2"],
        rows,
        title=(
            "Extension — pure CNN (paper) vs. ConvLSTM (paper future work), "
            f"window={WINDOW}"
        ),
    )
    return report, cnn_errors, lstm_errors


def test_convlstm_extension(benchmark, record_report):
    report, cnn_errors, lstm_errors = run_once(benchmark, run_comparison)
    record_report("extension_convlstm", report)

    # Both models must have learned the one-step map.
    assert cnn_errors[0] < 1.0
    assert lstm_errors[0] < 1.0
    # Both curves are finite throughout the rollout.
    assert all(np.isfinite(e) for e in cnn_errors + lstm_errors)
