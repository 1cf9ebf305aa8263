"""Engine/callback semantics plus seeded equivalence to the
pre-refactor training loops.

The golden values below were captured from the bespoke loops at the
commit *before* the Engine refactor (same configs, same seeds); the
equivalence tests pin the Engine to reproduce them (to rel 1e-9 since
the strip conv kernel — see ``golden``) so the refactor is provably
behaviour-preserving.
"""

import numpy as np
import pytest

from repro.core import (
    Callback,
    Checkpointer,
    CNNConfig,
    EarlyStopping,
    Engine,
    PaddingStrategy,
    ProgressLogger,
    RankDataset,
    SubdomainCNN,
    TrainingConfig,
    load_checkpoint,
    train_network,
    train_weight_averaging,
)
from repro.core.parallel import ParallelTrainer
from repro.data import SnapshotDataset, synthetic_advection_snapshots
from repro.exceptions import ConfigurationError
from repro.tensor import get_precision, precision


def toy_dataset(num=10, seed=42):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((num, 4, 8, 8))
    return RankDataset(rank=0, inputs=x, targets=0.5 * x + 0.1, halo=0, crop=0)


def small_cnn_config(strategy=PaddingStrategy.ZERO):
    return CNNConfig(channels=(4, 6, 4), kernel_size=3, strategy=strategy)


def small_model(seed=7, strategy=PaddingStrategy.ZERO):
    return SubdomainCNN(small_cnn_config(strategy), rng=np.random.default_rng(seed))


def advection(num_snapshots=9, grid_size=12, seed=0):
    return SnapshotDataset(
        synthetic_advection_snapshots(
            grid_size=grid_size, num_snapshots=num_snapshots, seed=seed
        )
    )


# ----------------------------------------------------------------------
# Event sequence
# ----------------------------------------------------------------------
class EventRecorder(Callback):
    def __init__(self):
        self.events = []

    def __getattribute__(self, name):
        if name.startswith("on_"):
            events = object.__getattribute__(self, "events")
            return lambda engine: events.append(name)
        return object.__getattribute__(self, name)


class TestEventSequence:
    def test_event_order_without_validation(self):
        recorder = EventRecorder()
        config = TrainingConfig(epochs=2, batch_size=5, loss="mse", seed=0)
        Engine(small_model(), config, callbacks=(recorder,)).fit(toy_dataset())
        per_batch = ["on_batch_start", "on_after_backward", "on_batch_end"]
        per_epoch = ["on_epoch_start"] + per_batch * 2 + ["on_epoch_end"]
        assert recorder.events == ["on_fit_start"] + per_epoch * 2 + ["on_fit_end"]

    def test_validation_event_fires_before_epoch_end(self):
        recorder = EventRecorder()
        config = TrainingConfig(epochs=1, batch_size=10, loss="mse", seed=0)
        Engine(small_model(), config, callbacks=(recorder,)).fit(
            toy_dataset(), validation_data=toy_dataset(4, seed=1)
        )
        assert recorder.events == [
            "on_fit_start",
            "on_epoch_start",
            "on_batch_start",
            "on_after_backward",
            "on_batch_end",
            "on_validation_end",
            "on_epoch_end",
            "on_fit_end",
        ]

    def test_user_callbacks_run_after_defaults(self):
        observed = []

        class AfterLossHistory(Callback):
            def on_epoch_end(self, engine):
                observed.append(len(engine.history.epoch_losses))

        config = TrainingConfig(epochs=2, batch_size=10, loss="mse", seed=0)
        Engine(small_model(), config, callbacks=(AfterLossHistory(),)).fit(toy_dataset())
        # LossHistory (a default) has already appended when user callbacks run.
        assert observed == [1, 2]

    def test_fit_end_fires_even_on_error(self):
        recorder = EventRecorder()

        class Boom(Callback):
            def on_batch_end(self, engine):
                raise RuntimeError("boom")

        config = TrainingConfig(epochs=1, batch_size=10, loss="mse", seed=0)
        engine = Engine(small_model(), config, callbacks=(recorder, Boom()))
        with pytest.raises(RuntimeError):
            engine.fit(toy_dataset())
        assert recorder.events[-1] == "on_fit_end"


# ----------------------------------------------------------------------
# Seeded equivalence with the pre-refactor loops (golden values)
# ----------------------------------------------------------------------
def golden(losses):
    """The goldens were captured bit-exactly before the Engine refactor,
    on the monolithic conv kernel.  The strip kernel sums the same
    products in another order (grad_w strip by strip, grad_x as a
    correlation instead of a col2im scatter), so they are pinned to
    rel 1e-9 instead (observed drift: the last digit).  Cross-backend
    and resume tests compare the kernel with itself and stay exact."""
    return pytest.approx(losses, rel=1e-9, abs=0.0)


class TestGoldenEquivalence:
    def test_train_network(self):
        model = small_model(seed=7)
        config = TrainingConfig(
            epochs=4,
            batch_size=4,
            lr=0.01,
            loss="mse",
            seed=3,
            grad_clip=1.0,
            lr_schedule="exponential",
            lr_schedule_kwargs={"gamma": 0.5},
        )
        history = train_network(model, toy_dataset(), config)
        assert history.epoch_losses == golden([
            0.5702630691862834,
            0.3554285259365743,
            0.3073493849471212,
            0.28498376777179574,
        ])

    def test_parallel_trainer(self):
        trainer = ParallelTrainer(
            cnn_config=small_cnn_config(PaddingStrategy.NEIGHBOR_FIRST),
            training_config=TrainingConfig(
                epochs=2, batch_size=4, lr=0.01, loss="mse", seed=1
            ),
            num_ranks=4,
            seed=5,
        )
        result = trainer.train(advection(), execution="serial")
        assert result.final_losses == golden([
            0.08217575238920581,
            0.0755660641980473,
            0.0848219813092068,
            0.0545402933822151,
        ])

    def test_weight_averaging(self):
        result = train_weight_averaging(
            advection(),
            num_ranks=2,
            cnn_config=small_cnn_config(),
            training_config=TrainingConfig(
                epochs=3, batch_size=4, lr=0.01, loss="mse", seed=0
            ),
            seed=9,
        )
        assert result.history.epoch_losses == golden([
            0.10739210964387613,
            0.08955989228766259,
            0.07723297443326674,
        ])
        assert result.bytes_reduced == 42432


# ----------------------------------------------------------------------
# Graph lifetime
# ----------------------------------------------------------------------
class TestGraphRelease:
    def test_step_graph_is_dead_before_the_next_batch_starts(self):
        """Step n's prediction (and with it the whole autograd graph:
        every activation) must be unreachable when step n+1 begins —
        otherwise two steps of activations are live at once."""
        import weakref

        from repro.nn import Module

        class Remembering(Module):
            def __init__(self, inner):
                super().__init__()
                self.inner = inner
                self.predictions = []

            def forward(self, x):
                out = self.inner(x)
                # Tensor has __slots__ without __weakref__; its array
                # dies with it (and with the closures capturing it).
                self.predictions.append(weakref.ref(out.data))
                return out

        model = Remembering(small_model())
        alive_at_start = []

        class Probe(Callback):
            def on_batch_start(self, engine):
                alive_at_start.append([ref() is not None for ref in model.predictions])

        config = TrainingConfig(epochs=2, batch_size=5, lr=0.01, loss="mse", seed=0)
        Engine(model, config, callbacks=(Probe(),)).fit(toy_dataset())
        assert len(alive_at_start) == 4
        assert not any(any(step) for step in alive_at_start), alive_at_start


# ----------------------------------------------------------------------
# Standard callbacks
# ----------------------------------------------------------------------
class TestEarlyStopping:
    def test_stops_on_plateaued_training_loss(self):
        config = TrainingConfig(epochs=50, batch_size=10, lr=1e-12, loss="mse", seed=0)
        stopper = EarlyStopping(patience=2, min_delta=1e-3)
        engine = Engine(small_model(), config, callbacks=(stopper,))
        history = engine.fit(toy_dataset())
        # A vanishing lr plateaus immediately: epoch 1 sets best, epochs
        # 2-3 exhaust the patience.
        assert len(history.epoch_losses) == 3
        assert stopper.stopped_epoch == 3

    def test_monitors_validation_loss_when_available(self):
        config = TrainingConfig(epochs=40, batch_size=10, lr=1e-12, loss="mse", seed=0)
        stopper = EarlyStopping(patience=1, min_delta=1e-6)
        engine = Engine(small_model(), config, callbacks=(stopper,))
        history = engine.fit(toy_dataset(), validation_data=toy_dataset(4, seed=1))
        assert len(history.val_losses) == len(history.epoch_losses) < 40
        assert stopper.best == history.val_losses[0]

    def test_improving_run_trains_to_completion(self):
        config = TrainingConfig(epochs=5, batch_size=5, lr=0.01, loss="mse", seed=0)
        engine = Engine(
            small_model(), config, callbacks=(EarlyStopping(patience=5),)
        )
        assert len(engine.fit(toy_dataset()).epoch_losses) == 5

    def test_validates_parameters(self):
        with pytest.raises(ConfigurationError):
            EarlyStopping(patience=0)
        with pytest.raises(ConfigurationError):
            EarlyStopping(patience=1, min_delta=-0.1)


class TestPerfCounters:
    def test_fit_populates_perf_report(self):
        from repro.core import PerfCounters
        from repro.tensor import perf

        config = TrainingConfig(epochs=2, batch_size=5, lr=0.01, loss="mse", seed=0)
        lines = []
        engine = Engine(
            small_model(), config, callbacks=(PerfCounters(log=lines.append),)
        )
        engine.fit(toy_dataset())
        assert engine.perf_report is not None
        assert engine.perf_report["conv2d"].calls > 0
        assert engine.perf_report["conv2d"].seconds > 0.0
        assert any("conv2d" in line for line in lines)
        # The callback restores the registry's prior (disabled) state.
        assert not perf.perf_enabled()

    def test_training_identical_with_and_without_counters(self):
        from repro.core import PerfCounters

        config = TrainingConfig(epochs=3, batch_size=5, lr=0.01, loss="mse", seed=0)
        plain = Engine(small_model(), config).fit(toy_dataset())
        counted = Engine(
            small_model(), config, callbacks=(PerfCounters(),)
        ).fit(toy_dataset())
        assert plain.epoch_losses == counted.epoch_losses


class TestCheckpointer:
    def test_best_checkpoint_tracks_minimum(self, tmp_path):
        best = tmp_path / "best.npz"
        config = TrainingConfig(epochs=4, batch_size=5, lr=0.01, loss="mse", seed=0)
        saver = Checkpointer(best_path=str(best))
        engine = Engine(
            small_model(), config, callbacks=(saver,), model_config=small_cnn_config()
        )
        history = engine.fit(toy_dataset())
        # Losses decrease monotonically here, so the best epoch is the last.
        assert saver.best == min(history.epoch_losses)
        assert saver.best_epoch == len(history.epoch_losses)
        checkpoint = load_checkpoint(best)
        assert checkpoint.epoch == saver.best_epoch
        final_state = engine.model.state_dict()
        for name, value in checkpoint.model_state.items():
            np.testing.assert_array_equal(value, final_state[name])

    def test_periodic_checkpoint_every_n_epochs(self, tmp_path):
        path = tmp_path / "latest.npz"
        config = TrainingConfig(epochs=5, batch_size=5, lr=0.01, loss="mse", seed=0)
        engine = Engine(
            small_model(), config, callbacks=(Checkpointer(path=str(path), every=2),)
        )
        engine.fit(toy_dataset())
        # Written at epochs 2 and 4; the file holds the last write.
        assert load_checkpoint(path).epoch == 4

    def test_requires_some_path(self):
        with pytest.raises(ConfigurationError):
            Checkpointer()
        with pytest.raises(ConfigurationError):
            Checkpointer(path="x.npz", every=0)


class TestProgressLogger:
    def test_logs_every_epoch(self):
        lines = []
        config = TrainingConfig(epochs=3, batch_size=10, lr=0.01, loss="mse", seed=0)
        engine = Engine(
            small_model(), config, callbacks=(ProgressLogger(log=lines.append),)
        )
        engine.fit(toy_dataset())
        assert len(lines) == 3
        assert lines[0].startswith("epoch 1/3 loss=")

    def test_every_filters_but_keeps_final(self):
        lines = []
        config = TrainingConfig(epochs=5, batch_size=10, lr=0.01, loss="mse", seed=0)
        engine = Engine(
            small_model(),
            config,
            callbacks=(ProgressLogger(log=lines.append, every=2),),
        )
        engine.fit(toy_dataset())
        assert [line.split()[1] for line in lines] == ["2/5", "4/5", "5/5"]


# ----------------------------------------------------------------------
# Resume: kill-and-resume reproduces the uninterrupted run bit-exactly
# ----------------------------------------------------------------------
class StopAfter(Callback):
    """Simulate a killed run: checkpoint then stop after N epochs."""

    def __init__(self, epochs, path):
        self.epochs = epochs
        self.path = path

    def on_epoch_end(self, engine):
        if engine.epoch == self.epochs:
            engine.save(self.path)
            engine.stop_training = True


class TestResume:
    CONFIG = dict(
        epochs=6,
        batch_size=4,
        lr=0.01,
        loss="mse",
        seed=3,
        lr_schedule="exponential",
        lr_schedule_kwargs={"gamma": 0.7},
    )

    def test_resumed_training_matches_uninterrupted(self, tmp_path):
        config = TrainingConfig(**self.CONFIG)
        uninterrupted = train_network(small_model(), toy_dataset(), config)

        path = tmp_path / "mid.npz"
        interrupted = Engine(
            small_model(),
            config,
            callbacks=(StopAfter(3, str(path)),),
            model_config=small_cnn_config(),
        )
        first_half = interrupted.fit(toy_dataset())
        assert first_half.epoch_losses == uninterrupted.epoch_losses[:3]

        resumed_model = small_model(seed=99)  # weights come from the file
        resumed = Engine(resumed_model, config)
        history = resumed.fit(toy_dataset(), resume_from=str(path))
        assert history.epoch_losses == uninterrupted.epoch_losses
        final = Engine(small_model(), config)
        final_history = final.fit(toy_dataset())
        for name, value in resumed_model.state_dict().items():
            np.testing.assert_array_equal(value, final.model.state_dict()[name])
        assert final_history.epoch_losses == uninterrupted.epoch_losses

    def test_resume_rejects_mismatched_config(self, tmp_path):
        config = TrainingConfig(**self.CONFIG)
        path = tmp_path / "mid.npz"
        Engine(small_model(), config, callbacks=(StopAfter(2, str(path)),)).fit(
            toy_dataset()
        )
        other = config.replace(lr=0.5)
        with pytest.raises(ConfigurationError, match="different"):
            Engine(small_model(), other).fit(toy_dataset(), resume_from=str(path))

    @pytest.mark.default_precision
    def test_a_float64_checkpoint_resumes_in_float64_only(self, tmp_path):
        """Under the float32 default, resuming a checkpoint written in
        float64 is refused rather than run as a float32/float64 hybrid;
        inside ``precision("float64")`` it resumes bit-exactly."""
        config = TrainingConfig(**self.CONFIG)
        path = tmp_path / "mid.npz"
        with precision("float64"):
            uninterrupted = train_network(small_model(), toy_dataset(), config)
            Engine(small_model(), config, callbacks=(StopAfter(3, str(path)),)).fit(
                toy_dataset()
            )
        assert get_precision() == "float32"
        with pytest.raises(ConfigurationError, match="trained in float64"):
            Engine(small_model(), config).fit(toy_dataset(), resume_from=str(path))
        with precision("float64"):
            resumed = Engine(small_model(seed=99), config)
            history = resumed.fit(toy_dataset(), resume_from=str(path))
        assert history.epoch_losses == uninterrupted.epoch_losses
        assert all(p.dtype == np.float64 for p in resumed.model.parameters())


# ----------------------------------------------------------------------
# Config plumbing: one factory, loud failures
# ----------------------------------------------------------------------
class TestConfigFactory:
    def test_unknown_optimizer_kwarg_rejected(self):
        config = TrainingConfig(optimizer_kwargs={"momentun": 0.9}, loss="mse")
        with pytest.raises(ConfigurationError, match="momentun"):
            Engine(small_model(), config).fit(toy_dataset())

    def test_unknown_loss_kwarg_rejected(self):
        config = TrainingConfig(loss="huber", loss_kwargs={"detla": 0.5})
        with pytest.raises(ConfigurationError, match="detla"):
            Engine(small_model(), config).fit(toy_dataset())

    def test_unknown_schedule_kwarg_rejected(self):
        config = TrainingConfig(
            loss="mse", lr_schedule="exponential", lr_schedule_kwargs={"gama": 0.5}
        )
        with pytest.raises(ConfigurationError, match="gama"):
            Engine(small_model(), config).fit(toy_dataset())

    def test_valid_kwargs_accepted(self):
        config = TrainingConfig(
            epochs=1,
            batch_size=10,
            loss="huber",
            loss_kwargs={"delta": 0.5},
            optimizer="sgd",
            optimizer_kwargs={"momentum": 0.9},
        )
        history = Engine(small_model(), config).fit(toy_dataset())
        assert len(history.epoch_losses) == 1

    def test_training_config_replace_rejects_unknown_field(self):
        config = TrainingConfig()
        with pytest.raises(ConfigurationError, match="epochz"):
            config.replace(epochz=10)

    def test_training_config_replace_overrides(self):
        config = TrainingConfig(epochs=5).replace(epochs=9, lr=0.1)
        assert (config.epochs, config.lr) == (9, 0.1)
