"""Parallel-evaluation tests."""

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    CNNConfig,
    PaddingStrategy,
    ParallelTrainer,
    TrainingConfig,
    evaluate_parallel,
    skill_vs_identity,
)
from repro.data import SnapshotDataset, synthetic_advection_snapshots
from repro.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def trained():
    snaps = synthetic_advection_snapshots(grid_size=16, num_snapshots=10, seed=0)
    dataset = SnapshotDataset(snaps)
    train, validation = dataset.split(7)
    trainer = ParallelTrainer(
        CNNConfig(channels=(4, 6, 4), kernel_size=3, strategy=PaddingStrategy.NEIGHBOR_FIRST),
        TrainingConfig(epochs=3, batch_size=4, lr=0.01, loss="mse", seed=0),
        num_ranks=4,
    )
    return trainer.train(train, execution="serial"), validation


class TestEvaluateParallel:
    def test_global_matches_serial_reference(self, trained):
        """The allreduce-aggregated metric equals the serial one."""
        result, validation = trained
        evaluation = evaluate_parallel(result, validation)

        # Serial reference: predict every rank block, accumulate.
        from repro.core import build_rank_dataset
        from repro.core.trainer import predict

        models = result.build_models()
        sse = sst = count = 0.0
        for rank, model in enumerate(models):
            data = build_rank_dataset(
                validation, result.decomposition, rank,
                halo=result.cnn_config.input_halo,
            )
            prediction = predict(model, data.inputs)
            diff = prediction - data.targets
            sse += float(np.sum(diff**2))
            sst += float(np.sum(data.targets**2))
            count += diff.size
        assert np.isclose(evaluation.global_relative_l2, np.sqrt(sse / sst))
        assert np.isclose(evaluation.global_rmse, np.sqrt(sse / count))

    def test_per_rank_errors_populated(self, trained):
        result, validation = trained
        evaluation = evaluate_parallel(result, validation)
        assert len(evaluation.per_rank_relative_l2) == 4
        assert all(np.isfinite(e) for e in evaluation.per_rank_relative_l2)
        assert 0 <= evaluation.worst_rank() < 4

    def test_sample_count(self, trained):
        result, validation = trained
        evaluation = evaluate_parallel(result, validation)
        assert evaluation.num_samples == validation.num_samples

    def test_field_shape_mismatch_raises(self, trained):
        result, _ = trained
        wrong = SnapshotDataset(
            synthetic_advection_snapshots(grid_size=12, num_snapshots=4, seed=1)
        )
        with pytest.raises(ConfigurationError):
            evaluate_parallel(result, wrong)


class TestEvaluationMemory:
    #: Traced peak of the case below: 23.7 MB.  Each rank's padded convs
    #: used to pad-copy their inputs into the rank thread's arena, which
    #: kept the copies; that read 35.3 MB.
    PEAK_BOUND_MB = 30

    def test_traced_peak_at_64_squared_on_two_ranks(self):
        """The Table-I network on 64x32 blocks, 17 validation samples:
        every conv after the first writes the zero-bordered input of the
        next, so no rank holds a padded copy of any activation."""
        snaps = synthetic_advection_snapshots(grid_size=64, num_snapshots=22, seed=0)
        train, validation = SnapshotDataset(snaps).split(5)
        result = ParallelTrainer(
            CNNConfig(),
            TrainingConfig(epochs=1, batch_size=4, seed=0),
            num_ranks=2,
            pgrid=(1, 2),
        ).train(train, execution="serial")
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            evaluate_parallel(result, validation)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert validation.num_samples == 17
        assert peak < self.PEAK_BOUND_MB * 2**20, peak / 2**20


class TestSkillVsIdentity:
    @staticmethod
    def trajectory():
        frames = np.random.default_rng(0).standard_normal((9, 2, 5, 5))
        return np.cumsum(frames, axis=0)  # every step moves the field

    def test_exact_identity_and_twice_its_error(self):
        reference = self.trajectory()
        identity = np.broadcast_to(reference[0], reference.shape)
        worse = reference + 2.0 * (identity - reference)
        for predicted, want in ((reference, 1.0), (identity, 0.0), (worse, -1.0)):
            skill = skill_vs_identity(predicted, reference, (1, 8), ("a", "b"))
            assert set(skill) == {1, 8}
            for step in skill.values():
                assert step == pytest.approx({"a": want, "b": want})

    def test_a_channel_that_does_not_move_has_no_skill(self):
        reference = self.trajectory()
        reference[:, 1] = reference[0, 1]
        skill = skill_vs_identity(reference + 0.1, reference, (1,), ("a", "b"))
        assert np.isfinite(skill[1]["a"]) and np.isnan(skill[1]["b"])

    def test_rejects_a_step_outside_the_rollout(self):
        reference = self.trajectory()
        with pytest.raises(ConfigurationError, match="outside"):
            skill_vs_identity(reference, reference, (9,), ("a", "b"))
        with pytest.raises(ConfigurationError, match="trajectories"):
            skill_vs_identity(reference[:-1], reference, (1,), ("a", "b"))
