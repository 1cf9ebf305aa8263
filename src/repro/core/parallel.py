"""The paper's parallel training scheme (Sec. III "Training").

Every MPI rank owns one spatial subdomain, builds an independent
Table-I CNN and trains it on its own sub-fields — no communication at
all during training.  Three execution modes are provided:

``"threads"``
    One in-process MPI rank (thread) per subdomain through
    :func:`repro.mpi.run_parallel`; the faithful SPMD execution.
    Python-level work serializes on the GIL, so wall-clock does not
    scale with P.
``"processes"``
    One OS process per rank (``run_parallel(backend="processes")``):
    ranks genuinely occupy separate cores, so the measured wall-clock
    is the real parallel training time.  Results are bit-identical to
    the other modes (each rank's seeding is derived from ``seed + rank``
    regardless of where the rank runs).
``"serial"``
    Rank programs executed one after another in the calling thread.
    Because training is communication-free this is *algorithmically
    identical*; it exists so per-rank training time can be measured
    without scheduling noise on machines with fewer cores than ranks
    (the Fig. 4 study's ``faithful`` timing mode — see DESIGN.md).

Every mode runs a rank's conv kernels on ``max(1, cores // P)`` threads
(:mod:`repro.tensor.blocked`), set where the launcher or the serial loop
starts the rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..data.dataset import SnapshotDataset
from ..domain.decomposition import BlockDecomposition, Subdomain
from ..exceptions import ConfigurationError
from ..obs import trace
from .. import mpi
from ..mpi.launcher import _set_share, _share
from ..tensor.precision import get_precision, precision
from .engine import Callback, Engine
from .model import CNNConfig, SubdomainCNN
from .subdomain_data import build_rank_dataset
from .trainer import TrainingConfig, TrainingHistory


@dataclass
class RankTrainingResult:
    """Outcome of one rank's independent training."""

    rank: int
    subdomain: Subdomain
    state_dict: dict[str, np.ndarray]
    history: TrainingHistory
    train_time: float  # seconds, measured inside the rank

    @property
    def final_loss(self) -> float:
        return self.history.final_loss


@dataclass
class ParallelTrainingResult:
    """Outcome of the whole parallel training phase."""

    cnn_config: CNNConfig
    training_config: TrainingConfig
    decomposition: BlockDecomposition
    rank_results: list[RankTrainingResult]
    execution: str
    #: compute mode the networks were trained in; ``build_models``
    #: rebuilds them in it whatever mode is active
    precision: str
    #: wall-clock of the whole parallel region as observed by the
    #: caller (includes launch/teardown; the honest "measured" time —
    #: only meaningful as a parallel time under ``execution="processes"``)
    wall_time: float = 0.0

    @property
    def num_ranks(self) -> int:
        return len(self.rank_results)

    @property
    def max_train_time(self) -> float:
        """Wall-clock time of the slowest rank — the strong-scaling
        metric: with communication-free training, the parallel wall
        time equals the slowest rank's local training time."""
        return max(r.train_time for r in self.rank_results)

    @property
    def mean_train_time(self) -> float:
        return float(np.mean([r.train_time for r in self.rank_results]))

    @property
    def final_losses(self) -> list[float]:
        return [r.final_loss for r in self.rank_results]

    def build_models(self, rng: np.random.Generator | None = None) -> list[SubdomainCNN]:
        """Reconstruct the trained per-rank networks from their state
        dictionaries (in rank order), with parameters in the precision
        they were trained in."""
        models = []
        with precision(self.precision):
            for result in self.rank_results:
                model = SubdomainCNN(self.cnn_config, rng=rng or np.random.default_rng(0))
                model.load_state_dict(result.state_dict)
                models.append(model)
        return models


class ParallelTrainer:
    """Communication-free per-subdomain training of Table-I CNNs.

    Parameters
    ----------
    cnn_config:
        Network architecture + padding strategy (identical on every
        rank, as in the paper).
    training_config:
        Optimizer/loss/epoch settings (each rank runs its *own*
        optimizer instance on its own loss — paper step 4).
    num_ranks:
        Number of subdomains P.
    pgrid:
        Explicit process grid ``(Py, Px)``; default balanced
        factorization of ``num_ranks``.
    fill:
        Halo fill at physical boundaries (``"zero"`` or ``"edge"``).
    seed:
        Base seed; rank *r* initializes its network from ``seed + r``.
    callback_factory:
        Optional ``rank -> callbacks`` hook; the returned callbacks are
        attached to that rank's :class:`~repro.core.engine.Engine`.
    """

    def __init__(
        self,
        cnn_config: CNNConfig | None = None,
        training_config: TrainingConfig | None = None,
        num_ranks: int = 4,
        pgrid: tuple[int, int] | None = None,
        fill: str = "zero",
        seed: int = 0,
        callback_factory: Callable[[int], Sequence[Callback]] | None = None,
    ) -> None:
        if num_ranks < 1:
            raise ConfigurationError(f"num_ranks must be >= 1, got {num_ranks}")
        self.cnn_config = cnn_config if cnn_config is not None else CNNConfig()
        self.training_config = (
            training_config if training_config is not None else TrainingConfig()
        )
        self.num_ranks = num_ranks
        self.pgrid = pgrid
        self.fill = fill
        self.seed = seed
        self.callback_factory = callback_factory

    # ------------------------------------------------------------------
    def _decomposition(self, field_shape: tuple[int, int]) -> BlockDecomposition:
        if self.pgrid is not None:
            return BlockDecomposition(field_shape, self.pgrid)
        return BlockDecomposition.from_num_ranks(field_shape, self.num_ranks)

    def _rank_program(
        self,
        dataset: SnapshotDataset,
        decomposition: BlockDecomposition,
        rank: int,
        validation: SnapshotDataset | None = None,
    ) -> RankTrainingResult:
        """What one rank executes: build data, build net, train, report."""
        cfg = self.cnn_config

        def rank_data(source: SnapshotDataset):
            return build_rank_dataset(
                source,
                decomposition,
                rank,
                halo=cfg.input_halo,
                fill=self.fill,
            )

        data = rank_data(dataset)
        val_data = rank_data(validation) if validation is not None else None
        rng = np.random.default_rng(self.seed + rank)
        model = SubdomainCNN(cfg, rng=rng)
        rank_training = self.training_config.replace(
            seed=self.training_config.seed + rank
        )
        callbacks = self.callback_factory(rank) if self.callback_factory else ()
        engine = Engine(model, rank_training, callbacks=callbacks, model_config=cfg)
        history = engine.fit(data, validation_data=val_data)
        return RankTrainingResult(
            rank=rank,
            subdomain=decomposition.subdomain(rank),
            state_dict=model.state_dict(),
            history=history,
            train_time=engine.fit_time,
        )

    def train(
        self,
        dataset: SnapshotDataset,
        execution: str = "threads",
        validation: SnapshotDataset | None = None,
    ) -> ParallelTrainingResult:
        """Train all P networks on ``dataset`` and collect the results.

        When ``validation`` is given, each rank also evaluates its own
        subdomain of it after every epoch (recorded in the history's
        ``val_losses``; enables validation-monitoring callbacks such as
        :class:`~repro.core.engine.EarlyStopping`).
        """
        decomposition = self._decomposition(dataset.field_shape)
        start = trace.clock()
        if execution in ("threads", "processes"):

            def program(comm: mpi.Communicator) -> RankTrainingResult:
                result = self._rank_program(
                    dataset, decomposition, comm.rank, validation
                )
                # A single barrier marks the end of the training phase —
                # the only synchronization, matching the paper.
                comm.barrier()
                return result

            rank_results = mpi.run_parallel(
                program, self.num_ranks, backend=execution
            )
        elif execution == "serial":
            rank_results = []
            previous = _set_share(_share(self.num_ranks))
            try:
                for rank in range(self.num_ranks):
                    # Bind the rank context so spans/log lines from the
                    # sequentialized rank programs stay attributable.
                    with trace.rank_scope(rank):
                        rank_results.append(
                            self._rank_program(dataset, decomposition, rank, validation)
                        )
            finally:
                _set_share(previous)
        else:
            raise ConfigurationError(
                f"unknown execution mode {execution!r} "
                "(use 'threads', 'processes' or 'serial')"
            )
        return ParallelTrainingResult(
            cnn_config=self.cnn_config,
            training_config=self.training_config,
            decomposition=decomposition,
            rank_results=rank_results,
            execution=execution,
            precision=get_precision(),
            wall_time=trace.clock() - start,
        )


def train_sequential_baseline(
    dataset: SnapshotDataset,
    cnn_config: CNNConfig | None = None,
    training_config: TrainingConfig | None = None,
    seed: int = 0,
) -> ParallelTrainingResult:
    """The sequential reference: one network for the whole domain.

    Exactly the parallel scheme at P = 1 — the paper's baseline for the
    Fig. 4 speedup.
    """
    trainer = ParallelTrainer(
        cnn_config=cnn_config,
        training_config=training_config,
        num_ranks=1,
        seed=seed,
    )
    return trainer.train(dataset, execution="serial")
