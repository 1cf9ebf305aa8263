"""Checkpoint save/load tests."""

import json

import numpy as np
import pytest

from repro.core import (
    CNNConfig,
    PaddingStrategy,
    ParallelPredictor,
    ParallelTrainer,
    SubdomainCNN,
    TrainingConfig,
    load_checkpoint,
    load_checkpoint_precision,
    load_parallel_models,
    save_checkpoint,
    save_parallel_models,
)
from repro.core.engine import build_optimizer
from repro.data import SnapshotDataset, synthetic_advection_snapshots
from repro.exceptions import ConfigurationError, DatasetError
from repro.tensor import get_precision, precision


def train_small():
    """Four tiny networks trained one epoch in the active precision."""
    dataset = SnapshotDataset(synthetic_advection_snapshots(grid_size=12, num_snapshots=6, seed=0))
    trainer = ParallelTrainer(
        CNNConfig(channels=(4, 6, 4), kernel_size=3, strategy=PaddingStrategy.NEIGHBOR_FIRST),
        TrainingConfig(epochs=1, batch_size=4, lr=0.01, loss="mse"),
        num_ranks=4,
    )
    return trainer.train(dataset, execution="serial")


@pytest.fixture
def trained_result():
    return train_small()


class TestRoundtrip:
    def test_models_identical_after_reload(self, tmp_path, trained_result):
        path = tmp_path / "models.npz"
        save_parallel_models(path, trained_result)
        models, decomposition, config = load_parallel_models(path)
        assert len(models) == 4
        assert decomposition.pgrid == trained_result.decomposition.pgrid
        assert config.strategy is PaddingStrategy.NEIGHBOR_FIRST
        for model, rank_result in zip(models, trained_result.rank_results):
            for name, value in model.state_dict().items():
                assert np.array_equal(value, rank_result.state_dict[name])

    def test_reloaded_models_predict_identically(self, tmp_path, trained_result, rng):
        path = tmp_path / "models.npz"
        save_parallel_models(path, trained_result)
        models, decomposition, _ = load_parallel_models(path)

        field = rng.standard_normal((4, 12, 12))
        original = ParallelPredictor(
            trained_result.build_models(), trained_result.decomposition
        ).rollout(field, 2)
        reloaded = ParallelPredictor(models, decomposition).rollout(field, 2)
        assert np.allclose(original.trajectory, reloaded.trajectory)

    def test_config_fields_preserved(self, tmp_path, trained_result):
        path = tmp_path / "models.npz"
        save_parallel_models(path, trained_result)
        _, _, config = load_parallel_models(path)
        assert config.channels == (4, 6, 4)
        assert config.kernel_size == 3
        assert config.negative_slope == trained_result.cnn_config.negative_slope


class TestValidation:
    def test_non_checkpoint_raises(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(DatasetError):
            load_parallel_models(path)


class TestPrecisionMetadata:
    def test_float64_policy_recorded(self, tmp_path, trained_result):
        path = tmp_path / "models.npz"
        with precision("float64"):
            save_parallel_models(path, trained_result)
        assert load_checkpoint_precision(path) == "float64"

    @pytest.mark.default_precision
    def test_default_records_float32(self, tmp_path, trained_result):
        path = tmp_path / "models.npz"
        save_parallel_models(path, trained_result)
        assert load_checkpoint_precision(path) == "float32"

    @pytest.mark.default_precision
    def test_float64_checkpoint_runs_float64_under_the_default(self, tmp_path):
        """Loaded with no precision named, under the float32 default, a
        float64 checkpoint rebuilds float64 networks whose rollout is
        bitwise the one before saving."""
        dataset = SnapshotDataset(
            synthetic_advection_snapshots(grid_size=12, num_snapshots=6, seed=0)
        )
        path = tmp_path / "models.npz"
        initial = np.random.default_rng(1).standard_normal((4, 12, 12))
        with precision("float64"):
            result = ParallelTrainer(
                CNNConfig(channels=(4, 6, 4), kernel_size=3),
                TrainingConfig(epochs=1, batch_size=4, lr=0.01, loss="mse"),
                num_ranks=4,
            ).train(dataset, execution="serial")
            before = ParallelPredictor(result.build_models(), result.decomposition)
            want = before.rollout(initial, 3).trajectory
            save_parallel_models(path, result)
        assert get_precision() == "float32"
        models, decomposition, _ = load_parallel_models(path)
        for model in models:
            assert all(p.dtype == np.float64 for p in model.parameters())
        got = ParallelPredictor(models, decomposition).rollout(initial, 3).trajectory
        assert got.dtype == np.float64 and np.array_equal(got, want)

    def test_active_policy_recorded(self, tmp_path):
        """The policy active while training is recorded, not the one
        active when saving."""
        path = tmp_path / "models.npz"
        with precision("float32"):
            result = train_small()
        save_parallel_models(path, result)
        assert load_checkpoint_precision(path) == "float32"

    def test_explicit_precision_wins(self, tmp_path, trained_result):
        path = tmp_path / "models.npz"
        save_parallel_models(path, trained_result, precision="float32")
        assert load_checkpoint_precision(path) == "float32"

    def test_float32_checkpoint_reloads_float32_parameters(self, tmp_path):
        """A float32-trained checkpoint must come back with float32
        parameter storage even when the loading process is in float64
        mode — the recorded precision drives the rebuild."""
        dataset = SnapshotDataset(
            synthetic_advection_snapshots(grid_size=12, num_snapshots=6, seed=0)
        )
        path = tmp_path / "models.npz"
        with precision("float32"):
            result = ParallelTrainer(
                CNNConfig(channels=(4, 6, 4), kernel_size=3),
                TrainingConfig(epochs=1, batch_size=4, lr=0.01, loss="mse"),
                num_ranks=4,
            ).train(dataset, execution="serial")
            save_parallel_models(path, result)
        models, _, _ = load_parallel_models(path)
        for model in models:
            assert all(p.dtype == np.float32 for p in model.parameters())

    def test_load_precision_override(self, tmp_path, trained_result):
        path = tmp_path / "models.npz"
        save_parallel_models(path, trained_result)  # float64 checkpoint
        models, _, _ = load_parallel_models(path, precision="float32")
        for model in models:
            assert all(p.dtype == np.float32 for p in model.parameters())

    def test_training_checkpoint_records_precision(self, tmp_path):
        with precision("float32"):
            model, cnn_config = small_model()
            config = TrainingConfig(epochs=1, batch_size=4, loss="mse")
            path = tmp_path / "ckpt.npz"
            save_checkpoint(path, model, config, model_config=cnn_config)
        assert load_checkpoint(path).precision == "float32"


class TestFloat32RoundTrip:
    """Train → save → load → rollout entirely in float32 on the paper's
    euler-gaussian scenario, on both execution backends.

    Documented tolerance: one epoch of Adam in float32 drifts from the
    float64 trajectory by well under 1% relative L2 at this scale, so
    the rollout comparison uses ``rtol=0.05`` — loose enough to absorb
    optimizer-path divergence, tight enough to catch any dtype mix-up
    (a float64 leak mid-graph changes results at the 1e-7 level but a
    *wrong* computation changes them at the 1e-1 level).
    """

    def _train_rollout(self, tmp_path, execution, mode):
        from repro.data import generate_scenario_dataset

        produced = generate_scenario_dataset(
            "euler-gaussian", grid_size=16, num_snapshots=6, num_train=4
        )
        dataset = SnapshotDataset(produced.full_snapshots)
        path = tmp_path / f"models-{mode}-{execution}.npz"
        with precision(mode):
            result = ParallelTrainer(
                CNNConfig(channels=(4, 6, 4), kernel_size=3),
                TrainingConfig(epochs=1, batch_size=4, lr=0.01, loss="mse", seed=0),
                num_ranks=4,
                seed=0,
            ).train(dataset, execution=execution)
            save_parallel_models(path, result)
        assert load_checkpoint_precision(path) == mode
        models, decomposition, _ = load_parallel_models(path)
        with precision(load_checkpoint_precision(path)):
            rollout = ParallelPredictor(models, decomposition).rollout(
                dataset.snapshots[0], num_steps=2
            )
        return np.asarray(rollout.trajectory)

    @pytest.mark.parametrize("execution", ["threads", "processes"])
    def test_float32_matches_float64_within_tolerance(self, tmp_path, execution):
        reference = self._train_rollout(tmp_path, execution, "float64")
        trajectory = self._train_rollout(tmp_path, execution, "float32")
        assert np.all(np.isfinite(trajectory))
        scale = float(np.abs(reference).max())
        np.testing.assert_allclose(
            trajectory, reference, rtol=0.05, atol=0.05 * scale
        )


# ----------------------------------------------------------------------
# Single-model training checkpoints
# ----------------------------------------------------------------------
def small_model(seed=7):
    config = CNNConfig(channels=(4, 6, 4), kernel_size=3, strategy=PaddingStrategy.ZERO)
    return SubdomainCNN(config, rng=np.random.default_rng(seed)), config


class TestTrainingCheckpoint:
    def test_model_and_config_roundtrip(self, tmp_path):
        model, cnn_config = small_model()
        config = TrainingConfig(epochs=3, batch_size=8, lr=0.05, loss="mae", seed=4)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, config, model_config=cnn_config, epoch=2)
        checkpoint = load_checkpoint(path)
        assert checkpoint.epoch == 2
        assert checkpoint.training_config == config
        assert checkpoint.model_config == cnn_config
        state = model.state_dict()
        assert set(checkpoint.model_state) == set(state)
        for name, value in state.items():
            np.testing.assert_array_equal(checkpoint.model_state[name], value)

    def test_optimizer_state_roundtrip(self, tmp_path):
        model, _ = small_model()
        config = TrainingConfig(epochs=1, batch_size=4, loss="mse")
        optimizer = build_optimizer(config, model.parameters())
        # Populate the Adam moments with one real step.
        for param in optimizer.params:
            param.grad = np.ones_like(param.data)
        optimizer.step()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, config, optimizer)
        loaded = build_optimizer(config, model.parameters())
        loaded.load_state_dict(load_checkpoint(path).optimizer_state)
        assert loaded.step_count == 1
        for original, restored in zip(optimizer._m, loaded._m):
            np.testing.assert_array_equal(original, restored)
        for original, restored in zip(optimizer._v, loaded._v):
            np.testing.assert_array_equal(original, restored)

    def test_history_and_rng_state_roundtrip(self, tmp_path):
        model, _ = small_model()
        config = TrainingConfig(loss="mse")
        rng = np.random.default_rng(123)
        rng.random(10)  # advance mid-stream
        from repro.core import TrainingHistory

        history = TrainingHistory(
            epoch_losses=[0.5, 0.25], epoch_times=[1.0, 1.1], val_losses=[0.6]
        )
        path = tmp_path / "ckpt.npz"
        save_checkpoint(
            path, model, config, history=history, rng_state=rng.bit_generator.state
        )
        checkpoint = load_checkpoint(path)
        assert checkpoint.epoch_losses == [0.5, 0.25]
        assert checkpoint.val_losses == [0.6]
        restored = np.random.default_rng(0)
        restored.bit_generator.state = checkpoint.rng_state
        np.testing.assert_array_equal(restored.random(5), rng.random(5))

    def test_wrong_format_raises(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(DatasetError):
            load_checkpoint(path)

    def test_parallel_checkpoint_is_not_a_training_checkpoint(
        self, tmp_path, trained_result
    ):
        path = tmp_path / "models.npz"
        save_parallel_models(path, trained_result)
        with pytest.raises(DatasetError):
            load_checkpoint(path)


def rewrite_strategy(path, meta_key, strategy):
    """Rewrite the recorded ``cnn_config.strategy`` of a saved checkpoint."""
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(str(arrays[meta_key]))
    cnn_config = json.loads(meta["cnn_config"])
    cnn_config["strategy"] = strategy
    meta["cnn_config"] = json.dumps(cnn_config)
    arrays[meta_key] = json.dumps(meta)
    np.savez(path, **arrays)


class TestUnknownStrategy:
    """A checkpoint naming a strategy that does not exist (such as the
    deleted ``transpose`` and ``inner_crop``) fails with the typed error
    that lists the valid choices, not a bare enum ``ValueError``."""

    @pytest.mark.parametrize("name", ["transpose", "inner_crop", "no_such_strategy"])
    def test_parallel_models(self, tmp_path, trained_result, name):
        path = tmp_path / "models.npz"
        save_parallel_models(path, trained_result)
        rewrite_strategy(path, "__meta__", name)
        with pytest.raises(ConfigurationError, match=f"'{name}'.*choose from"):
            load_parallel_models(path)

    @pytest.mark.parametrize("name", ["transpose", "inner_crop", "no_such_strategy"])
    def test_training_checkpoint(self, tmp_path, name):
        model, cnn_config = small_model()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, TrainingConfig(epochs=1), model_config=cnn_config)
        rewrite_strategy(path, "__train_meta__", name)
        with pytest.raises(ConfigurationError, match=f"'{name}'.*choose from"):
            load_checkpoint(path)
