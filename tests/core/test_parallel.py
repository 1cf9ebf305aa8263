"""Parallel-trainer tests: the paper's scheme end to end."""

import numpy as np
import pytest

from repro.core import (
    CNNConfig,
    PaddingStrategy,
    ParallelPredictor,
    ParallelTrainer,
    TrainingConfig,
    train_sequential_baseline,
)
from repro.data import SnapshotDataset, synthetic_advection_snapshots
from repro.exceptions import ConfigurationError
from repro.tensor import get_precision, precision


def small_setup(strategy=PaddingStrategy.NEIGHBOR_FIRST, epochs=2):
    snaps = synthetic_advection_snapshots(grid_size=16, num_snapshots=8, seed=0)
    dataset = SnapshotDataset(snaps)
    cnn = CNNConfig(channels=(4, 6, 4), kernel_size=3, strategy=strategy)
    training = TrainingConfig(epochs=epochs, batch_size=4, lr=0.01, loss="mse", seed=0)
    return dataset, cnn, training


class TestExecutionModes:
    def test_threads_and_serial_produce_identical_weights(self):
        """Training is communication-free, so the execution mode cannot
        change the result — a key invariant of the paper's scheme."""
        dataset, cnn, training = small_setup()
        results = {}
        for mode in ("threads", "serial"):
            trainer = ParallelTrainer(cnn, training, num_ranks=4, seed=0)
            results[mode] = trainer.train(dataset, execution=mode)
        for rank in range(4):
            state_t = results["threads"].rank_results[rank].state_dict
            state_s = results["serial"].rank_results[rank].state_dict
            for name in state_t:
                assert np.array_equal(state_t[name], state_s[name])

    def test_unknown_mode_raises(self):
        dataset, cnn, training = small_setup()
        with pytest.raises(ConfigurationError):
            ParallelTrainer(cnn, training, num_ranks=2).train(dataset, execution="mpi")


class TestResults:
    def test_one_result_per_rank_in_order(self):
        dataset, cnn, training = small_setup()
        result = ParallelTrainer(cnn, training, num_ranks=4).train(dataset)
        assert result.num_ranks == 4
        assert [r.rank for r in result.rank_results] == [0, 1, 2, 3]

    def test_subdomains_partition_grid(self):
        dataset, cnn, training = small_setup()
        result = ParallelTrainer(cnn, training, num_ranks=4).train(dataset)
        cover = np.zeros((16, 16), dtype=int)
        for rank_result in result.rank_results:
            sub = rank_result.subdomain
            cover[sub.y_slice, sub.x_slice] += 1
        assert np.all(cover == 1)

    def test_times_and_losses_recorded(self):
        dataset, cnn, training = small_setup()
        result = ParallelTrainer(cnn, training, num_ranks=2).train(dataset)
        assert result.max_train_time > 0
        assert result.mean_train_time <= result.max_train_time + 1e-12
        assert len(result.final_losses) == 2
        assert all(np.isfinite(l) for l in result.final_losses)

    def test_build_models_reproduces_trained_weights(self):
        dataset, cnn, training = small_setup()
        result = ParallelTrainer(cnn, training, num_ranks=2).train(dataset)
        models = result.build_models()
        for model, rank_result in zip(models, result.rank_results):
            for name, value in model.state_dict().items():
                assert np.array_equal(value, rank_result.state_dict[name])

    @pytest.mark.default_precision
    def test_build_models_uses_the_training_precision(self):
        """Networks trained in float64 come back float64 under the float32
        default, and roll out bitwise as they do inside the float64 scope."""
        dataset, cnn, training = small_setup()
        initial = dataset.snapshots[0]
        with precision("float64"):
            result = ParallelTrainer(cnn, training, num_ranks=2).train(dataset)
            want = ParallelPredictor(result.build_models(), result.decomposition)
            want = want.rollout(initial, 2).trajectory
        assert result.precision == "float64" and get_precision() == "float32"
        models = result.build_models()
        assert all(p.dtype == np.float64 for m in models for p in m.parameters())
        got = ParallelPredictor(models, result.decomposition).rollout(initial, 2).trajectory
        assert np.array_equal(got, want)

    def test_ranks_have_different_initial_seeds(self):
        """Each rank seeds its own network: rank nets must differ."""
        dataset, cnn, training = small_setup(epochs=1)
        result = ParallelTrainer(cnn, training, num_ranks=2).train(dataset)
        a = result.rank_results[0].state_dict
        b = result.rank_results[1].state_dict
        assert any(not np.array_equal(a[k], b[k]) for k in a)

    def test_explicit_pgrid(self):
        dataset, cnn, training = small_setup()
        trainer = ParallelTrainer(cnn, training, num_ranks=4, pgrid=(4, 1))
        result = trainer.train(dataset)
        assert result.decomposition.pgrid == (4, 1)

    def test_training_loss_decreases_per_rank(self):
        dataset, cnn, training = small_setup(epochs=10)
        result = ParallelTrainer(cnn, training, num_ranks=4).train(dataset)
        for rank_result in result.rank_results:
            losses = rank_result.history.epoch_losses
            assert losses[-1] < losses[0]


class TestSequentialBaseline:
    def test_is_parallel_scheme_at_p1(self):
        dataset, cnn, training = small_setup()
        baseline = train_sequential_baseline(dataset, cnn, training, seed=0)
        direct = ParallelTrainer(cnn, training, num_ranks=1, seed=0).train(
            dataset, execution="serial"
        )
        state_a = baseline.rank_results[0].state_dict
        state_b = direct.rank_results[0].state_dict
        for name in state_a:
            assert np.array_equal(state_a[name], state_b[name])

    def test_single_subdomain_covers_domain(self):
        dataset, cnn, training = small_setup()
        baseline = train_sequential_baseline(dataset, cnn, training)
        sub = baseline.rank_results[0].subdomain
        assert sub.shape == (16, 16)


class TestValidation:
    def test_bad_rank_count_raises(self):
        with pytest.raises(ConfigurationError):
            ParallelTrainer(num_ranks=0)
