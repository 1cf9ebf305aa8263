"""Weight-averaging data parallelism — the Viviani et al. baseline.

The paper's introduction contrasts its scheme with the data-parallel
approach of Viviani et al. (PDP 2019): the training *samples* are split
into chunks, each rank trains a full-domain replica on its chunk, and a
global reduction averages the weights after every round.  The paper
argues this (a) alters the learning algorithm, degrading accuracy, and
(b) makes the global reduction a bottleneck.  This module implements
that baseline so both claims can be measured.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import mpi
from ..data.dataset import SnapshotDataset
from ..domain.decomposition import split_extent
from ..exceptions import ConfigurationError
from .engine import Callback, Engine
from .model import CNNConfig, SubdomainCNN
from .padding import PaddingStrategy
from .subdomain_data import RankDataset
from .trainer import TrainingConfig, TrainingHistory


@dataclass
class WeightAveragingResult:
    """Outcome of the weight-averaging baseline run."""

    state_dict: dict[str, np.ndarray]
    history: TrainingHistory
    train_time: float
    #: allreduce rounds executed (one per epoch)
    reduction_rounds: int
    #: total bytes moved through reductions (all ranks, naive allreduce)
    bytes_reduced: int
    cnn_config: CNNConfig

    def build_model(self) -> SubdomainCNN:
        model = SubdomainCNN(self.cnn_config, rng=np.random.default_rng(0))
        model.load_state_dict(self.state_dict)
        return model


class _WeightAveragingCallback(Callback):
    """The Viviani et al. round structure as engine events.

    Each epoch is one *round*: a fresh optimizer and a round-specific
    shuffle seed (``on_epoch_start``), then a weight allreduce averaging
    all replicas and a loss allreduce replacing the local epoch loss with
    the global mean (``on_epoch_end``).  The fresh optimizer reproduces
    the baseline's semantics of restarting Adam's moments every round —
    part of why the scheme "alters the learning algorithm".
    """

    def __init__(self, comm: mpi.Communicator, base_seed: int, num_ranks: int) -> None:
        self.comm = comm
        self.base_seed = base_seed
        self.num_ranks = num_ranks
        self.bytes_reduced = 0

    def on_epoch_start(self, engine: Engine) -> None:
        engine.reseed(self.base_seed + engine.epoch * self.num_ranks + self.comm.rank)
        engine.reset_optimizer()

    def on_epoch_end(self, engine: Engine) -> None:
        # Global reduction: average every parameter across replicas.
        state = engine.model.state_dict()
        for name, value in state.items():
            total = self.comm.allreduce(value, op=mpi.SUM)
            state[name] = total / self.comm.size
            # Naive allreduce cost model: each rank contributes its
            # array once and receives the result once.
            self.bytes_reduced += 2 * value.nbytes
        engine.model.load_state_dict(state)
        # Report the replica-mean loss (runs after LossHistory appended
        # the local value, so overwrite in place).
        mean_loss = self.comm.allreduce(engine.train_loss) / self.comm.size
        engine.history.epoch_losses[-1] = mean_loss


def train_weight_averaging(
    dataset: SnapshotDataset,
    num_ranks: int,
    cnn_config: CNNConfig | None = None,
    training_config: TrainingConfig | None = None,
    seed: int = 0,
) -> WeightAveragingResult:
    """Run the Viviani-style baseline on ``num_ranks`` in-process ranks.

    Every rank holds a replica of the full-domain network (the
    architecture is forced to a size-preserving padding strategy since
    there is no spatial decomposition).  Each epoch: one local pass over
    the rank's sample chunk, then an allreduce that averages all
    replicas' weights.
    """
    if num_ranks < 1:
        raise ConfigurationError(f"num_ranks must be >= 1, got {num_ranks}")
    if dataset.num_samples < num_ranks:
        raise ConfigurationError(
            f"{dataset.num_samples} samples cannot be chunked over {num_ranks} ranks"
        )
    cnn_config = cnn_config if cnn_config is not None else CNNConfig(
        strategy=PaddingStrategy.ZERO
    )
    if cnn_config.input_halo:
        raise ConfigurationError(
            "weight averaging trains full-domain replicas; use the "
            "size-preserving ZERO strategy"
        )
    training_config = training_config if training_config is not None else TrainingConfig()
    chunks = split_extent(dataset.num_samples, num_ranks)
    inputs = dataset.inputs()
    targets = dataset.targets()

    def program(comm: mpi.Communicator) -> tuple[dict, TrainingHistory, float, int]:
        rank = comm.rank
        lo, hi = chunks[rank]
        local = RankDataset(
            rank=rank,
            inputs=np.ascontiguousarray(inputs[lo:hi]),
            targets=np.ascontiguousarray(targets[lo:hi]),
            halo=0,
            crop=0,
        )
        # All replicas start from identical weights (standard data
        # parallelism), then diverge within an epoch and are re-averaged.
        model = SubdomainCNN(cnn_config, rng=np.random.default_rng(seed))
        averaging = _WeightAveragingCallback(comm, training_config.seed, num_ranks)
        engine = Engine(
            model, training_config, callbacks=(averaging,), model_config=cnn_config
        )
        history = engine.fit(local)
        return model.state_dict(), history, engine.fit_time, averaging.bytes_reduced

    results = mpi.run_parallel(program, num_ranks)
    state_dict, history, _, _ = results[0]
    return WeightAveragingResult(
        state_dict=state_dict,
        history=history,
        train_time=max(r[2] for r in results),
        reduction_rounds=training_config.epochs,
        bytes_reduced=sum(r[3] for r in results),
        cnn_config=cnn_config,
    )
