"""Experiment-runner integration tests (tiny configurations).

These verify the full table/figure pipelines execute and produce
well-formed results; the benchmarks run the realistic configurations.
"""

import numpy as np
import pytest

from repro.core import PaddingStrategy
from repro.experiments import (
    DataConfig,
    Fig3Config,
    Fig4Config,
    PrecisionGateConfig,
    architecture_rows,
    default_training_config,
    paper_faithful_training_config,
    prepare_data,
    render_table1,
    run_fig3,
    run_fig4,
    run_loss_ablation,
    run_optimizer_ablation,
    run_padding_ablation,
    run_precision_gate,
    run_rollout_study,
    run_scheme_comparison,
)
from repro.exceptions import ConfigurationError

TINY = DataConfig(grid_size=24, num_snapshots=16, num_train=12)
FAST_TRAIN = default_training_config(epochs=2)


class TestTable1:
    def test_rendered_table_matches_paper(self):
        text = render_table1()
        assert "4" in text and "6" in text and "16" in text
        assert "5x5" in text.replace(" ", "") or "x5x5" in text

    def test_rows_extracted_from_real_network(self):
        import numpy as np

        from repro.core import CNNConfig, SubdomainCNN

        rows = architecture_rows(SubdomainCNN(CNNConfig(), rng=np.random.default_rng(0)))
        assert [(r.input_channels, r.output_channels) for r in rows] == [
            (4, 6),
            (6, 16),
            (16, 6),
            (6, 4),
        ]
        assert all("5x5" in r.kernel for r in rows)


class TestDataPreparation:
    def test_normalized_by_default(self):
        experiment = prepare_data(TINY)
        assert experiment.normalizer is not None
        # Standardized training channels.
        for ch in range(4):
            assert abs(experiment.train.snapshots[:, ch].std() - 1.0) < 0.1

    def test_denormalize_roundtrip(self):
        experiment = prepare_data(TINY)
        raw = experiment.denormalize(experiment.validation.snapshots)
        back = experiment.normalizer.transform(raw)
        assert np.allclose(back, experiment.validation.snapshots)

    def test_raw_mode(self):
        experiment = prepare_data(DataConfig(**{**TINY.__dict__, "normalize": False}))
        assert experiment.normalizer is None

    def test_invalid_split_raises(self):
        with pytest.raises(ConfigurationError):
            DataConfig(grid_size=24, num_snapshots=10, num_train=10)

    def test_paper_faithful_config_is_mape_adam(self):
        config = paper_faithful_training_config()
        assert config.loss == "mape"
        assert config.lr == 0.01
        assert config.optimizer == "adam"


class TestFig3:
    def test_runs_and_reports(self):
        config = Fig3Config(data=TINY, training=FAST_TRAIN, num_ranks=4)
        result = run_fig3(config)
        assert result.prediction.shape == (4, 24, 24)
        assert result.target.shape == (4, 24, 24)
        assert set(result.per_channel_relative_l2) == {"p", "rho", "u", "v"}
        report = result.report(heatmaps=True)
        assert "Fig. 3" in report
        assert "prediction [p]" in report

    def test_prediction_in_physical_units(self):
        config = Fig3Config(data=TINY, training=FAST_TRAIN, num_ranks=2)
        result = run_fig3(config)
        # Physical pressure scale is O(0.1), not the standardized O(1)
        # with zero mean: check the target is the raw solver field.
        raw_val = result.experiment_data.raw_validation()
        assert np.allclose(result.target, raw_val[config.sample_index + 1])

    def test_bad_sample_index_raises(self):
        config = Fig3Config(data=TINY, training=FAST_TRAIN, sample_index=999)
        with pytest.raises(ConfigurationError):
            run_fig3(config)


class TestFig4:
    def test_scaling_rows(self):
        config = Fig4Config(
            data=TINY,
            training=default_training_config(epochs=1),
            rank_counts=(1, 2, 4),
        )
        result = run_fig4(config)
        assert result.rank_counts == [1, 2, 4]
        assert all(r.train_time > 0 for r in result.rows)
        assert result.rows[0].speedup == 1.0
        # Training time must decrease with rank count (the Fig. 4 claim).
        assert result.rows[-1].train_time < result.rows[0].train_time
        assert "Fig. 4" in result.report()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Fig4Config(rank_counts=())
        with pytest.raises(ConfigurationError):
            Fig4Config(rank_counts=(0, 2))
        with pytest.raises(ConfigurationError):
            Fig4Config(repeats=0)


class TestAblations:
    def test_padding_ablation_subset(self):
        result = run_padding_ablation(
            data=TINY,
            training=FAST_TRAIN,
            num_ranks=4,
            strategies=(PaddingStrategy.ZERO, PaddingStrategy.NEIGHBOR_FIRST),
        )
        assert [r.name for r in result.rows] == ["zero", "neighbor_first"]
        assert all(np.isfinite(r.value) for r in result.rows)
        assert "Padding" in result.report()
        assert result.best().value == min(r.value for r in result.rows)

    def test_augmentation_ablation(self):
        from repro.experiments import run_augmentation_ablation

        result = run_augmentation_ablation(data=TINY, epochs=1, num_ranks=2)
        names = [r.name for r in result.rows]
        assert names == ["baseline", "d4_augmented"]
        by_name = {r.name: r for r in result.rows}
        assert by_name["d4_augmented"].train_time > by_name["baseline"].train_time

    def test_loss_ablation(self):
        result = run_loss_ablation(data=TINY, losses=("mse", "mape"), epochs=1, num_ranks=2)
        assert [r.name for r in result.rows] == ["mse", "mape"]

    def test_optimizer_ablation(self):
        result = run_optimizer_ablation(data=TINY, epochs=1, num_ranks=2)
        assert [r.name for r in result.rows] == ["adam", "sgd", "sgd+momentum"]

    def test_rollout_study_errors_grow(self):
        result = run_rollout_study(
            data=TINY, training=FAST_TRAIN, num_ranks=2, num_steps=3
        )
        assert result.steps == [1, 2, 3]
        assert len(result.errors) == 3
        assert "Rollout" in result.report()

    def test_rollout_too_many_steps_raises(self):
        with pytest.raises(ConfigurationError):
            run_rollout_study(data=TINY, training=FAST_TRAIN, num_steps=99)

    def test_scheme_comparison_rows(self):
        result = run_scheme_comparison(data=TINY, epochs=1, num_ranks=2)
        schemes = [r.scheme for r in result.rows]
        assert any("sequential" in s for s in schemes)
        assert any("subdomain" in s for s in schemes)
        assert any("averaging" in s for s in schemes)
        # Weight averaging pays communication; the paper scheme does not.
        by_name = {r.scheme: r for r in result.rows}
        wa = next(r for r in result.rows if "averaging" in r.scheme)
        sub = next(r for r in result.rows if "subdomain" in r.scheme)
        assert wa.bytes_communicated > 0
        assert sub.bytes_communicated == 0

    def test_scheme_comparison_times_only_the_fit(self, monkeypatch):
        """Every row times ``Engine.fit``: a second spent building each
        rank's data shows up in no row's train time."""
        import time

        from repro.core import parallel

        build = parallel.build_rank_dataset

        def slow_build(*args, **kwargs):
            time.sleep(1.0)
            return build(*args, **kwargs)

        monkeypatch.setattr(parallel, "build_rank_dataset", slow_build)
        result = run_scheme_comparison(data=TINY, epochs=1, num_ranks=2)
        for row in result.rows:
            assert row.train_time < 1.0, row


class TestPrecisionGate:
    def test_float32_tracks_the_float64_oracle_on_euler_gaussian(self):
        """The gate's comparison at a toy budget: every cell passes the
        gate's rule (float32's seed median inside float64's seed range,
        widened by 5%), and the medians differ by under 1e-5 relative.
        Calibrated on a 2-core x86 VM, where the largest gap read 2e-8
        at this budget (three epochs); at the default budget of
        EXPERIMENTS.md (60 epochs) the gaps grow to 1e-2."""
        config = PrecisionGateConfig(
            scenarios=("euler-gaussian",), seeds=(0, 1, 2), grid_size=16,
            num_snapshots=24, num_train=14, epochs=3,
        )  # fmt: skip
        result = run_precision_gate(config)
        assert {(r.precision, r.seed) for r in result.runs} == {
            (mode, seed) for mode in ("float32", "float64") for seed in (0, 1, 2)
        }
        rows = result.rows()
        assert len(rows) == 4 * 2 * 2  # channels x steps x (error, skill)
        assert result.failures() == []
        assert max(row.gap for row in rows) < 1e-5
        assert "cells pass" in result.report()
