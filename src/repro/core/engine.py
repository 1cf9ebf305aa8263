"""The single canonical training loop (``Engine``) and its callbacks.

Every training entry point in the repo — :func:`~repro.core.trainer.
train_network`, the :class:`~repro.core.parallel.ParallelTrainer` rank
programs, the weight-averaging baseline — delegates its epoch/batch
loop here.  The engine owns the canonical sequence

    forward → loss → backward → (clip) → step → (schedule)

and emits a fixed event order to an ordered list of
:class:`Callback` objects:

    on_fit_start
      on_epoch_start
        on_batch_start · on_after_backward · on_batch_end   (per batch)
      on_validation_end                                     (if val data)
      on_epoch_end
    on_fit_end

``on_after_backward`` fires between ``backward()`` and
``optimizer.step()`` — the only point where gradient surgery (clipping)
is sound.  New observability/robustness features should be written as
callbacks instead of touching the loop (see DESIGN.md for a worked
example).

The REP005 lint rule forbids hand-rolled epoch/batch loops anywhere
else under ``src/repro``; this module is the one sanctioned home.
"""

from __future__ import annotations

import inspect
from typing import Callable, Iterable, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..nn import Module, get_loss, loss_class
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..obs.log import progress as _log_progress
from ..optim import (
    LRSchedule,
    Optimizer,
    clip_grad_norm,
    get_optimizer,
    get_schedule,
    optimizer_class,
    schedule_class,
)
from ..tensor import Tensor, get_precision, no_grad
from .trainer import TrainingConfig, TrainingHistory

__all__ = [
    "Engine",
    "Callback",
    "LossHistory",
    "Timer",
    "LRScheduler",
    "GradClip",
    "EarlyStopping",
    "Checkpointer",
    "SanitizerAttach",
    "ProgressLogger",
    "build_loss",
    "build_optimizer",
    "build_schedule",
    "evaluate_model",
]

#: Training-loop instruments (rank-tagged; no-ops while the metrics
#: registry is off — see :mod:`repro.obs.metrics`).
_STEP_SECONDS = obs_metrics.histogram("engine.step_seconds")
_LOSS_GAUGE = obs_metrics.gauge("engine.loss", forward_to_trace=False)
_SAMPLES_PER_S = obs_metrics.gauge("engine.samples_per_s", forward_to_trace=False)


# ======================================================================
# TrainingConfig → components factory
# ======================================================================
def _validate_kwargs(target, kwargs: dict, what: str, reserved: Iterable[str]) -> None:
    """Reject keys ``target``'s signature does not accept.

    Dataclass-style configs happily carry arbitrary dicts; without this
    check a typo (``"momentun"``) rides silently into a ``TypeError``
    deep inside a rank thread.
    """
    try:
        signature = inspect.signature(target)
    except (TypeError, ValueError):  # pragma: no cover - builtins only
        return
    parameters = signature.parameters
    if any(p.kind is p.VAR_KEYWORD for p in parameters.values()):
        return
    allowed = {
        name
        for name, p in parameters.items()
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
    } - {"self", *reserved}
    unknown = set(kwargs) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown {what} option(s) {sorted(unknown)}; "
            f"valid options are {sorted(allowed)}"
        )


def build_loss(config: TrainingConfig):
    """Loss instance from ``config`` (unknown kwargs rejected)."""
    _validate_kwargs(loss_class(config.loss), config.loss_kwargs, f"loss {config.loss!r}", ())
    return get_loss(config.loss, **config.loss_kwargs)


def build_optimizer(config: TrainingConfig, params) -> Optimizer:
    """Optimizer instance from ``config`` (unknown kwargs rejected)."""
    _validate_kwargs(
        optimizer_class(config.optimizer),
        config.optimizer_kwargs,
        f"optimizer {config.optimizer!r}",
        ("params", "lr"),
    )
    return get_optimizer(config.optimizer, params, lr=config.lr, **config.optimizer_kwargs)


def build_schedule(config: TrainingConfig, optimizer: Optimizer) -> LRSchedule | None:
    """LR schedule from ``config`` (``None`` when not configured)."""
    if config.lr_schedule is None:
        return None
    _validate_kwargs(
        schedule_class(config.lr_schedule),
        config.lr_schedule_kwargs,
        f"lr schedule {config.lr_schedule!r}",
        ("optimizer",),
    )
    return get_schedule(config.lr_schedule, optimizer, **config.lr_schedule_kwargs)


def evaluate_model(model: Module, data, loss_fn, batch_size: int = 64) -> float:
    """Mean loss of ``model`` over ``data`` without recording gradients."""
    model.eval()
    total = 0.0
    samples = 0
    with no_grad():
        for inputs, targets in data.batches(batch_size, False, None):
            value = loss_fn(model(Tensor(inputs)), Tensor(targets))
            total += value.item() * inputs.shape[0]
            samples += inputs.shape[0]
    return total / samples


# ======================================================================
# Callbacks
# ======================================================================
class Callback:
    """Observer of the engine's event sequence.

    Every hook receives the engine; read/write its public state
    (``epoch``, ``train_loss``, ``val_loss``, ``history``,
    ``stop_training``, ``optimizer``, ...) to implement behaviour.
    """

    def on_fit_start(self, engine: "Engine") -> None: ...

    def on_epoch_start(self, engine: "Engine") -> None: ...

    def on_batch_start(self, engine: "Engine") -> None: ...

    def on_after_backward(self, engine: "Engine") -> None: ...

    def on_batch_end(self, engine: "Engine") -> None: ...

    def on_validation_end(self, engine: "Engine") -> None: ...

    def on_epoch_end(self, engine: "Engine") -> None: ...

    def on_fit_end(self, engine: "Engine") -> None: ...


class LossHistory(Callback):
    """Record per-epoch training (and validation) loss into
    ``engine.history`` — the absorbed ``TrainingHistory`` writer."""

    def on_epoch_end(self, engine: "Engine") -> None:
        engine.history.epoch_losses.append(engine.train_loss)

    def on_validation_end(self, engine: "Engine") -> None:
        engine.history.val_losses.append(engine.val_loss)


class Timer(Callback):
    """Monotonic epoch timing into ``engine.history.epoch_times``
    plus total fit wall time on ``engine.fit_time``."""

    def on_fit_start(self, engine: "Engine") -> None:
        self._fit_start = trace.clock()

    def on_epoch_start(self, engine: "Engine") -> None:
        self._epoch_start = trace.clock()

    def on_epoch_end(self, engine: "Engine") -> None:
        engine.history.epoch_times.append(trace.clock() - self._epoch_start)

    def on_fit_end(self, engine: "Engine") -> None:
        engine.fit_time = trace.clock() - self._fit_start


class GradClip(Callback):
    """Global-norm gradient clipping between backward and step,
    driven by ``config.grad_clip`` (no-op when unset)."""

    def on_after_backward(self, engine: "Engine") -> None:
        if engine.config.grad_clip is not None:
            clip_grad_norm(engine.optimizer.params, engine.config.grad_clip)


class LRScheduler(Callback):
    """Step the configured LR schedule once per epoch (no-op when
    ``config.lr_schedule`` is unset)."""

    def on_epoch_end(self, engine: "Engine") -> None:
        if engine.schedule is not None:
            engine.schedule.step()


class EarlyStopping(Callback):
    """Stop training after ``patience`` epochs without improvement.

    Monitors the validation loss when validation data is supplied,
    otherwise the training loss.  ``min_delta`` is the minimum decrease
    that counts as an improvement.
    """

    def __init__(self, patience: int, min_delta: float = 0.0) -> None:
        if patience < 1:
            raise ConfigurationError(f"patience must be >= 1, got {patience}")
        if min_delta < 0:
            raise ConfigurationError(f"min_delta must be >= 0, got {min_delta}")
        self.patience = int(patience)
        self.min_delta = float(min_delta)
        self.best: float = np.inf
        self.wait = 0
        self.stopped_epoch: int | None = None

    def on_epoch_end(self, engine: "Engine") -> None:
        value = engine.val_loss if engine.val_loss is not None else engine.train_loss
        if value < self.best - self.min_delta:
            self.best = value
            self.wait = 0
            return
        self.wait += 1
        if self.wait >= self.patience:
            self.stopped_epoch = engine.epoch
            engine.stop_training = True


class Checkpointer(Callback):
    """Periodic and/or best-model checkpointing (resume-exact: model,
    optimizer moments, RNG state — see ``core/checkpoint.py``).

    Parameters
    ----------
    path:
        Written every ``every`` epochs (overwritten in place); resume
        with ``Engine.fit(..., resume_from=path)``.
    best_path:
        Written whenever the monitored loss (validation when available,
        else training) reaches a new minimum.
    """

    def __init__(
        self,
        path: str | None = None,
        every: int = 1,
        best_path: str | None = None,
    ) -> None:
        if path is None and best_path is None:
            raise ConfigurationError("Checkpointer needs a path and/or a best_path")
        if every < 1:
            raise ConfigurationError(f"every must be >= 1, got {every}")
        self.path = path
        self.every = int(every)
        self.best_path = best_path
        self.best: float = np.inf
        self.best_epoch: int | None = None

    def on_epoch_end(self, engine: "Engine") -> None:
        value = engine.val_loss if engine.val_loss is not None else engine.train_loss
        if self.best_path is not None and value < self.best:
            self.best = value
            self.best_epoch = engine.epoch
            engine.save(self.best_path)
        if self.path is not None and engine.epoch % self.every == 0:
            engine.save(self.path)


class SanitizerAttach(Callback):
    """Bridge the PR-1 runtime sanitizers into the loop: the fit runs
    under :class:`~repro.analysis.FloatSanitizer` (NaN/Inf tripwire on
    every op) and optionally :class:`~repro.analysis.ShapeContract`."""

    def __init__(
        self,
        float_sanitizer: bool = True,
        shape_contract: bool = False,
        check_gradients: bool = True,
    ) -> None:
        self.float_sanitizer = float_sanitizer
        self.shape_contract = shape_contract
        self.check_gradients = check_gradients
        self._active: list = []

    def on_fit_start(self, engine: "Engine") -> None:
        from ..analysis import FloatSanitizer, ShapeContract

        if self.float_sanitizer:
            self._active.append(FloatSanitizer(check_gradients=self.check_gradients))
        if self.shape_contract:
            self._active.append(ShapeContract())
        for sanitizer in self._active:
            sanitizer.__enter__()

    def on_fit_end(self, engine: "Engine") -> None:
        while self._active:
            self._active.pop().__exit__(None, None, None)


class ProgressLogger(Callback):
    """One line per epoch through ``log``.

    The default sink is the rank-tagged ``repro`` logger (see
    :mod:`repro.obs.log`): the line itself is byte-identical to the old
    ``print`` default, but verbosity now follows ``--log-level`` and
    rank threads get a ``[rank N]`` prefix.
    """

    def __init__(self, log: Callable[[str], None] | None = None, every: int = 1) -> None:
        if every < 1:
            raise ConfigurationError(f"every must be >= 1, got {every}")
        self.log = log if log is not None else _log_progress
        self.every = int(every)

    def on_epoch_end(self, engine: "Engine") -> None:
        if engine.epoch % self.every and engine.epoch != engine.config.epochs:
            return
        val = f" val={engine.val_loss:.6g}" if engine.val_loss is not None else ""
        elapsed = (
            f" [{engine.history.epoch_times[-1]:.2f}s]"
            if engine.history.epoch_times
            else ""
        )
        self.log(
            f"epoch {engine.epoch}/{engine.config.epochs} "
            f"loss={engine.train_loss:.6g}{val}{elapsed}"
        )


# ======================================================================
# The engine
# ======================================================================
class Engine:
    """Owns the canonical epoch/batch loop over any dataset exposing
    ``batches(batch_size, shuffle, rng)`` yielding ``(inputs, targets)``
    ndarray pairs (``RankDataset``, ``SnapshotDataset``).

    The default callback set — :class:`LossHistory`, :class:`Timer`,
    :class:`GradClip`, :class:`LRScheduler` — reproduces the historical
    ``train_network`` semantics exactly; ``callbacks`` are appended
    after it and run last at every event.

    Parameters
    ----------
    model:
        Any :class:`~repro.nn.Module`.
    config:
        Hyperparameters; optimizer/loss/schedule are built through the
        validating factory (unknown kwargs raise ``ConfigurationError``).
    callbacks:
        Extra observers, run in order after the defaults.
    model_config:
        Optional :class:`~repro.core.model.CNNConfig` stored inside
        checkpoints so they are self-describing.
    """

    def __init__(
        self,
        model: Module,
        config: TrainingConfig,
        callbacks: Sequence[Callback] = (),
        model_config=None,
    ) -> None:
        self.model = model
        self.config = config
        self.model_config = model_config
        self.callbacks: list[Callback] = [
            LossHistory(),
            Timer(),
            GradClip(),
            LRScheduler(),
            *callbacks,
        ]
        self.history = TrainingHistory()
        self.loss_fn = None
        self.optimizer: Optimizer | None = None
        self.schedule: LRSchedule | None = None
        #: number of completed epochs; during an epoch's events up to
        #: ``on_validation_end`` it is the 0-based index of the running
        #: epoch, and ``on_epoch_end`` observes it already incremented.
        self.epoch = 0
        self.batch_index = 0
        self.train_loss: float | None = None
        self.val_loss: float | None = None
        self.last_batch_loss: float | None = None
        #: sample count of the most recent batch (throughput metrics)
        self.last_batch_size: int = 0
        self.stop_training = False
        self.fit_time: float | None = None
        self._rng: np.random.Generator | None = None

    # -- callback-facing helpers ---------------------------------------
    def reseed(self, seed: int) -> None:
        """Replace the batch-shuffling RNG (e.g. per averaging round)."""
        self._rng = np.random.default_rng(seed)

    def reset_optimizer(self) -> None:
        """Rebuild the optimizer (fresh moments) and its schedule."""
        self.optimizer = build_optimizer(self.config, self.model.parameters())
        self.schedule = build_schedule(self.config, self.optimizer)

    def rng_state(self) -> dict:
        """Serializable state of the batch RNG (for checkpoints)."""
        if self._rng is None:
            raise ConfigurationError("engine RNG not initialized (call fit first)")
        return self._rng.bit_generator.state

    def save(self, path) -> None:
        """Write a resume-exact checkpoint of the current state."""
        from .checkpoint import save_checkpoint

        save_checkpoint(
            path,
            model=self.model,
            training_config=self.config,
            optimizer=self.optimizer,
            model_config=self.model_config,
            epoch=self.epoch,
            history=self.history,
            rng_state=self.rng_state(),
        )

    def evaluate(self, data, batch_size: int | None = None) -> float:
        """Mean loss over ``data`` in inference mode (leaves the model
        in eval mode; ``fit`` flips it back)."""
        if self.loss_fn is None:
            self.loss_fn = build_loss(self.config)
        return evaluate_model(
            self.model, data, self.loss_fn, batch_size or self.config.batch_size
        )

    # -- the loop ------------------------------------------------------
    def _emit(self, event: str) -> None:
        for callback in self.callbacks:
            getattr(callback, event)(self)

    def _restore(self, resume_from) -> None:
        from .checkpoint import load_checkpoint, training_config_digest

        checkpoint = load_checkpoint(resume_from)
        digest = training_config_digest(self.config)
        if checkpoint.config_digest != digest:
            raise ConfigurationError(
                "resume_from checkpoint was written under a different "
                f"TrainingConfig (digest {checkpoint.config_digest[:12]} != "
                f"{digest[:12]}); resume with the original configuration"
            )
        if checkpoint.precision != get_precision():
            # The weights would be cast to the new mode but the optimizer
            # moments would not: a hybrid run, not the interrupted one.
            raise ConfigurationError(
                f"resume_from checkpoint was trained in {checkpoint.precision} but "
                f"the active precision is {get_precision()}; resume inside "
                f"precision({checkpoint.precision!r}) with a model built there"
            )
        self.model.load_state_dict(checkpoint.model_state)
        self.optimizer.load_state_dict(checkpoint.optimizer_state)
        if checkpoint.rng_state is not None:
            self._rng.bit_generator.state = checkpoint.rng_state
        self.history = TrainingHistory(
            epoch_losses=list(checkpoint.epoch_losses),
            epoch_times=list(checkpoint.epoch_times),
            val_losses=list(checkpoint.val_losses),
        )
        self.epoch = checkpoint.epoch
        if self.schedule is not None:
            # Schedules are pure functions of the epoch index; realign.
            self.schedule.epoch = checkpoint.epoch

    def fit(self, data, validation_data=None, resume_from=None) -> TrainingHistory:
        """Run the training loop; returns ``self.history``.

        ``resume_from`` restores a checkpoint written by ``save`` /
        :class:`Checkpointer` and continues bit-exactly: model weights,
        optimizer moments and step count, LR-schedule position, loss
        history, and the batch-shuffle RNG stream all carry over.  The
        active precision must be the one the checkpoint was trained in.
        """
        config = self.config
        self._rng = np.random.default_rng(config.seed)
        self.loss_fn = build_loss(config)
        self.optimizer = build_optimizer(config, self.model.parameters())
        self.schedule = build_schedule(config, self.optimizer)
        if resume_from is not None:
            self._restore(resume_from)
        self.model.train()
        self.stop_training = False
        self._emit("on_fit_start")
        try:
            for epoch in range(self.epoch, config.epochs):
                self.epoch = epoch
                metered = obs_metrics.enabled()
                epoch_start = trace.clock() if metered else 0.0
                with trace.span("engine.epoch", cat="train", epoch=epoch):
                    self._emit("on_epoch_start")
                    epoch_loss = 0.0
                    samples = 0
                    for self.batch_index, (inputs, targets) in enumerate(
                        data.batches(config.batch_size, config.shuffle, self._rng)
                    ):
                        with _STEP_SECONDS.time(), trace.span("engine.batch", cat="train"):
                            self._emit("on_batch_start")
                            self.optimizer.zero_grad()
                            prediction = self.model(Tensor(inputs))
                            loss = self.loss_fn(prediction, Tensor(targets))
                            loss.backward()
                            self._emit("on_after_backward")
                            self.optimizer.step()
                            batch = inputs.shape[0]
                            self.last_batch_loss = loss.item()
                            # Release this step's autograd graph now:
                            # the names would otherwise keep it (every
                            # activation) alive through the next forward.
                            del prediction, loss
                            self.last_batch_size = batch
                            epoch_loss += self.last_batch_loss * batch
                            samples += batch
                            self._emit("on_batch_end")
                        obs_metrics.heartbeat()
                    self.train_loss = epoch_loss / samples
                    if metered:
                        _LOSS_GAUGE.set(self.train_loss)
                        epoch_seconds = trace.clock() - epoch_start
                        if epoch_seconds > 0:
                            _SAMPLES_PER_S.set(samples / epoch_seconds)
                    self.val_loss = None
                    if validation_data is not None:
                        self.val_loss = self.evaluate(validation_data)
                        self.model.train()
                        self._emit("on_validation_end")
                    self.epoch = epoch + 1
                    self._emit("on_epoch_end")
                if self.stop_training:
                    break
        finally:
            self._emit("on_fit_end")
        return self.history
