"""Checkpointing of trained models.

Two formats, both single compressed ``.npz`` files (no pickle: robust
to refactors and safe to share):

- :func:`save_parallel_models` / :func:`load_parallel_models` — the P
  state dictionaries plus architecture and decomposition metadata
  needed to rebuild a :class:`~repro.core.inference.ParallelPredictor`.
- :func:`save_checkpoint` / :func:`load_checkpoint` — one *training*
  checkpoint: model weights, :class:`~repro.core.model.CNNConfig`,
  optimizer state (Adam moments + step count), the
  :class:`~repro.core.trainer.TrainingConfig` digest, loss history, and
  the batch-RNG state, so ``Engine.fit(resume_from=...)`` continues a
  killed run bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from ..domain.decomposition import BlockDecomposition
from ..exceptions import DatasetError
from ..tensor.precision import get_precision, precision as precision_scope
from .model import CNNConfig, SubdomainCNN
from .padding import parse_strategy
from .parallel import ParallelTrainingResult
from .trainer import TrainingConfig, TrainingHistory

_FORMAT_VERSION = 1
_TRAIN_FORMAT_VERSION = 1


def _config_to_json(config: CNNConfig) -> str:
    return json.dumps(
        {
            "channels": list(config.channels),
            "kernel_size": config.kernel_size,
            "negative_slope": config.negative_slope,
            "strategy": config.strategy.value,
            "init": config.init,
        }
    )


def _config_from_json(payload: str) -> CNNConfig:
    raw = json.loads(payload)
    return CNNConfig(
        channels=tuple(raw["channels"]),
        kernel_size=raw["kernel_size"],
        negative_slope=raw["negative_slope"],
        strategy=parse_strategy(raw["strategy"]),
        init=raw["init"],
    )


def save_parallel_models(
    path: str | os.PathLike,
    result: ParallelTrainingResult,
    *,
    scenario: str | None = None,
    precision: str | None = None,
) -> None:
    """Persist the trained per-rank networks of ``result``.

    The file stores, per rank, every parameter array under the key
    ``rank<r>/<param>``, plus the architecture and decomposition
    metadata.  ``scenario`` records which registered scenario the
    models were trained on, so ``repro evaluate`` can resolve the
    matching physics without being told again; ``precision`` (default:
    the active compute mode) records the dtype the models were trained
    in, so loading rebuilds them with matching parameter storage.
    """
    arrays: dict[str, np.ndarray] = {}
    for rank_result in result.rank_results:
        for name, value in rank_result.state_dict.items():
            arrays[f"rank{rank_result.rank}/{name}"] = value
    decomp = result.decomposition
    meta = {
        "format_version": _FORMAT_VERSION,
        "num_ranks": result.num_ranks,
        "pgrid": list(decomp.pgrid),
        "field_shape": list(decomp.field_shape),
        "cnn_config": _config_to_json(result.cnn_config),
        "precision": get_precision() if precision is None else str(precision),
    }
    if scenario is not None:
        meta["scenario"] = str(scenario)
    np.savez_compressed(path, __meta__=json.dumps(meta), **arrays)


def load_checkpoint_scenario(path: str | os.PathLike) -> str | None:
    """The scenario name recorded in a parallel-model checkpoint, or
    None for checkpoints written before scenarios existed (those are
    implicitly the paper baseline)."""
    with np.load(path, allow_pickle=False) as archive:
        if "__meta__" not in archive:
            raise DatasetError(f"{path} is not a repro model checkpoint")
        meta = json.loads(str(archive["__meta__"]))
    scenario = meta.get("scenario")
    return None if scenario is None else str(scenario)


def load_checkpoint_precision(path: str | os.PathLike) -> str:
    """The compute precision recorded in a parallel-model checkpoint.

    Checkpoints written before the precision policy existed are
    implicitly float64 (the historical compute mode).
    """
    with np.load(path, allow_pickle=False) as archive:
        if "__meta__" not in archive:
            raise DatasetError(f"{path} is not a repro model checkpoint")
        meta = json.loads(str(archive["__meta__"]))
    return str(meta.get("precision", "float64"))


def load_parallel_models(
    path: str | os.PathLike,
    *,
    precision: str | None = None,
) -> tuple[list[SubdomainCNN], BlockDecomposition, CNNConfig]:
    """Load networks saved by :func:`save_parallel_models`.

    Returns the rank-ordered models, the decomposition, and the
    architecture config — everything a
    :class:`~repro.core.inference.ParallelPredictor` needs.
    ``precision`` overrides the compute mode recorded in the checkpoint
    (the parameters are cast on load), e.g. to run a float64-trained
    model's rollout in float32.
    """
    with np.load(path, allow_pickle=False) as archive:
        if "__meta__" not in archive:
            raise DatasetError(f"{path} is not a repro model checkpoint")
        meta = json.loads(str(archive["__meta__"]))
        version = int(meta.get("format_version", 0))
        if version > _FORMAT_VERSION:
            raise DatasetError(
                f"checkpoint version {version} is newer than supported "
                f"({_FORMAT_VERSION})"
            )
        config = _config_from_json(meta["cnn_config"])
        decomposition = BlockDecomposition(
            tuple(meta["field_shape"]), tuple(meta["pgrid"])
        )
        models: list[SubdomainCNN] = []
        # Rebuild parameters in the recorded compute mode so the loaded
        # weights land in matching storage (load_state_dict casts the
        # archived arrays to the parameters' dtype).
        with precision_scope(precision or meta.get("precision", "float64")):
            for rank in range(int(meta["num_ranks"])):
                prefix = f"rank{rank}/"
                state = {
                    key[len(prefix):]: archive[key]
                    for key in archive.files
                    if key.startswith(prefix)
                }
                if not state:
                    raise DatasetError(f"checkpoint misses parameters for rank {rank}")
                model = SubdomainCNN(config, rng=np.random.default_rng(0))
                model.load_state_dict(state)
                models.append(model)
    return models, decomposition, config


# ======================================================================
# Single-model training checkpoints (resume-exact)
# ======================================================================
def training_config_digest(config: TrainingConfig) -> str:
    """Stable digest of a TrainingConfig (guards resume mismatches)."""
    payload = json.dumps(config.to_dict(), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _pack_state(state: dict, arrays: dict[str, np.ndarray], prefix: str) -> dict:
    """Split a state dict into JSON-able metadata + npz array entries.

    Lists of ``ndarray | None`` (optimizer moment buffers) become a
    presence mask in the metadata plus one array key per present entry.
    """
    meta: dict = {}
    for key, value in state.items():
        if isinstance(value, list):
            mask = []
            for index, item in enumerate(value):
                mask.append(item is not None)
                if item is not None:
                    arrays[f"{prefix}{key}/{index}"] = np.asarray(item)
            meta[key] = {"__arrays__": mask}
        elif isinstance(value, np.ndarray):
            arrays[f"{prefix}{key}"] = value
            meta[key] = {"__array__": True}
        else:
            meta[key] = value
    return meta


def _unpack_state(meta: dict, archive, prefix: str) -> dict:
    state: dict = {}
    for key, value in meta.items():
        if isinstance(value, dict) and "__arrays__" in value:
            state[key] = [
                archive[f"{prefix}{key}/{index}"] if present else None
                for index, present in enumerate(value["__arrays__"])
            ]
        elif isinstance(value, dict) and value.get("__array__"):
            state[key] = archive[f"{prefix}{key}"]
        else:
            state[key] = value
    return state


@dataclass
class TrainingCheckpoint:
    """Everything :meth:`~repro.core.engine.Engine.fit` needs to resume."""

    model_state: dict[str, np.ndarray]
    training_config: TrainingConfig
    config_digest: str
    epoch: int
    optimizer_state: dict | None = None
    model_config: CNNConfig | None = None
    rng_state: dict | None = None
    epoch_losses: list[float] = field(default_factory=list)
    epoch_times: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    #: compute mode the run was training in ("float64" pre-policy)
    precision: str = "float64"


def save_checkpoint(
    path: str | os.PathLike,
    model,
    training_config: TrainingConfig,
    optimizer=None,
    *,
    model_config: CNNConfig | None = None,
    epoch: int = 0,
    history: TrainingHistory | None = None,
    rng_state: dict | None = None,
) -> None:
    """Persist one model's full training state after ``epoch`` epochs.

    The optimizer's moment buffers and step count plus the batch-RNG
    state make the resume bit-exact: continuing from the checkpoint
    replays the identical shuffle stream and parameter updates an
    uninterrupted run would have produced.
    """
    arrays: dict[str, np.ndarray] = {
        f"model/{name}": value for name, value in model.state_dict().items()
    }
    optimizer_meta = None
    if optimizer is not None:
        optimizer_meta = _pack_state(optimizer.state_dict(), arrays, "optimizer/")
    meta = {
        "format_version": _TRAIN_FORMAT_VERSION,
        "precision": get_precision(),
        "epoch": int(epoch),
        "training_config": training_config.to_dict(),
        "config_digest": training_config_digest(training_config),
        "cnn_config": _config_to_json(model_config) if model_config is not None else None,
        "optimizer": optimizer_meta,
        "rng_state": rng_state,
        "history": None
        if history is None
        else {
            "epoch_losses": [float(x) for x in history.epoch_losses],
            "epoch_times": [float(x) for x in history.epoch_times],
            "val_losses": [float(x) for x in history.val_losses],
        },
    }
    np.savez_compressed(path, __train_meta__=json.dumps(meta), **arrays)


def load_checkpoint(path: str | os.PathLike) -> TrainingCheckpoint:
    """Load a checkpoint written by :func:`save_checkpoint`."""
    with np.load(path, allow_pickle=False) as archive:
        if "__train_meta__" not in archive:
            raise DatasetError(f"{path} is not a repro training checkpoint")
        meta = json.loads(str(archive["__train_meta__"]))
        version = int(meta.get("format_version", 0))
        if version > _TRAIN_FORMAT_VERSION:
            raise DatasetError(
                f"checkpoint version {version} is newer than supported "
                f"({_TRAIN_FORMAT_VERSION})"
            )
        prefix = "model/"
        model_state = {
            key[len(prefix):]: archive[key]
            for key in archive.files
            if key.startswith(prefix)
        }
        if not model_state:
            raise DatasetError(f"{path} carries no model parameters")
        optimizer_state = None
        if meta.get("optimizer") is not None:
            optimizer_state = _unpack_state(meta["optimizer"], archive, "optimizer/")
        history = meta.get("history") or {}
        return TrainingCheckpoint(
            model_state=model_state,
            training_config=TrainingConfig(**meta["training_config"]),
            config_digest=str(meta["config_digest"]),
            epoch=int(meta["epoch"]),
            optimizer_state=optimizer_state,
            model_config=(
                _config_from_json(meta["cnn_config"])
                if meta.get("cnn_config")
                else None
            ),
            rng_state=meta.get("rng_state"),
            epoch_losses=list(history.get("epoch_losses", [])),
            epoch_times=list(history.get("epoch_times", [])),
            val_losses=list(history.get("val_losses", [])),
            precision=str(meta.get("precision", "float64")),
        )
